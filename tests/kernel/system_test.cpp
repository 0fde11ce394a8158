#include "kernel/system.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace explframe::kernel {
namespace {

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.memory_bytes = 64 * kMiB;
  cfg.num_cpus = 2;
  cfg.dram.weak_cells.cells_per_mib = 0.0;
  return cfg;
}

TEST(System, SpawnAndFindTask) {
  System sys(small_cfg());
  Task& t = sys.spawn("worker", 1);
  EXPECT_EQ(t.cpu(), 1u);
  EXPECT_EQ(t.name(), "worker");
  EXPECT_EQ(sys.find_task(t.id()), &t);
  EXPECT_EQ(sys.find_task(9999), nullptr);
}

TEST(System, MmapDoesNotAllocateFrames) {
  System sys(small_cfg());
  Task& t = sys.spawn("lazy", 0);
  const auto faults_before = sys.stats().page_faults;
  sys.sys_mmap(t, 100 * kPageSize);
  // "the program must store some data into the allocated pages, otherwise
  // the physical page frames will not be allocated" (§V).
  EXPECT_EQ(sys.stats().page_faults, faults_before);
  EXPECT_EQ(t.space().page_table().mapped_pages(), 0u);
}

TEST(System, WriteFaultsPagesIn) {
  System sys(small_cfg());
  Task& t = sys.spawn("writer", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, 3 * kPageSize);
  std::vector<std::uint8_t> data(2 * kPageSize + 100, 0xCD);
  EXPECT_TRUE(sys.mem_write(t, va, {data.data(), data.size()}));
  EXPECT_EQ(t.space().page_table().mapped_pages(), 3u);
  EXPECT_EQ(t.space().counters().minor_faults, 3u);
}

TEST(System, ReadBackAcrossPages) {
  System sys(small_cfg());
  Task& t = sys.spawn("rw", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, 2 * kPageSize);
  std::vector<std::uint8_t> data(kPageSize + 512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(sys.mem_write(t, va + 100, {data.data(), data.size()}));
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sys.mem_read(t, va + 100, {out.data(), out.size()}));
  EXPECT_EQ(data, out);
}

TEST(System, ZeroOnAllocClearsOldData) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = false;  // isolate the data-page path
  System sys(cfg);
  Task& a = sys.spawn("first", 0);
  const vm::VirtAddr va = sys.sys_mmap(a, kPageSize);
  const std::uint8_t secret[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(sys.mem_write(a, va, secret));
  const mm::Pfn pfn = sys.translate(a, va);
  sys.sys_munmap(a, va, kPageSize);

  Task& b = sys.spawn("second", 0);
  const vm::VirtAddr vb = sys.sys_mmap(b, kPageSize);
  std::uint8_t probe = 0xFF;
  ASSERT_TRUE(sys.mem_write(b, vb + 100, {&probe, 1}));  // fault it in
  ASSERT_EQ(sys.translate(b, vb), pfn);  // same frame, via the pcp cache
  std::uint8_t out[4];
  ASSERT_TRUE(sys.mem_read(b, vb, out));
  EXPECT_EQ(out[0], 0);  // zeroed on allocation
}

TEST(System, AccessOutsideVmaFails) {
  System sys(small_cfg());
  Task& t = sys.spawn("segv", 0);
  std::uint8_t b = 1;
  EXPECT_FALSE(sys.mem_write(t, 0xdead0000, {&b, 1}));
  EXPECT_FALSE(sys.mem_read(t, 0xdead0000, {&b, 1}));
  EXPECT_EQ(sys.uncached_access(t, 0xdead0000), 0u);
}

TEST(System, MunmapSendsFrameToPcpHead) {
  // The full paper mechanism at syscall level: munmap on CPU c, next
  // order-0 fault on CPU c receives the same frame. The victim process is
  // already warm (its page-table nodes exist), as in the paper's scenario
  // of a long-running victim.
  System sys(small_cfg());
  Task& attacker = sys.spawn("attacker", 0);
  Task& victim = sys.spawn("victim", 0);
  const vm::VirtAddr warm = sys.sys_mmap(victim, kPageSize);
  const std::uint8_t w = 9;
  ASSERT_TRUE(sys.mem_write(victim, warm, {&w, 1}));

  const vm::VirtAddr va = sys.sys_mmap(attacker, 4 * kPageSize);
  for (int p = 0; p < 4; ++p) {
    const std::uint8_t b = 1;
    ASSERT_TRUE(sys.mem_write(attacker, va + p * kPageSize, {&b, 1}));
  }
  const mm::Pfn target = sys.translate(attacker, va + 2 * kPageSize);
  ASSERT_TRUE(sys.sys_munmap(attacker, va + 2 * kPageSize, kPageSize));

  const vm::VirtAddr vv = sys.sys_mmap(victim, kPageSize);
  const std::uint8_t b = 2;
  ASSERT_TRUE(sys.mem_write(victim, vv, {&b, 1}));
  EXPECT_EQ(sys.translate(victim, vv), target);
}

TEST(System, CrossCpuMunmapDoesNotSteer) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = false;  // isolate the data-page path
  System sys(cfg);
  Task& attacker = sys.spawn("attacker", 0);
  const vm::VirtAddr va = sys.sys_mmap(attacker, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(attacker, va, {&b, 1}));
  const mm::Pfn target = sys.translate(attacker, va);
  sys.sys_munmap(attacker, va, kPageSize);

  Task& victim = sys.spawn("victim", 1);  // different CPU
  const vm::VirtAddr vv = sys.sys_mmap(victim, kPageSize);
  ASSERT_TRUE(sys.mem_write(victim, vv, {&b, 1}));
  EXPECT_NE(sys.translate(victim, vv), target);
}

TEST(System, UncachedAccessReturnsLatencyAndFaults) {
  System sys(small_cfg());
  Task& t = sys.spawn("hammer", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const SimTime lat = sys.uncached_access(t, va);
  EXPECT_GT(lat, 0u);
  EXPECT_EQ(t.space().page_table().mapped_pages(), 1u);
}

TEST(System, ExitTaskReleasesEverything) {
  System sys(small_cfg());
  Task& t = sys.spawn("mortal", 0);
  // Snapshot after spawn: the page-table root frame stays charged until the
  // task struct itself is destroyed, as in Linux.
  const auto free0 = sys.allocator().global_free_pages() +
                     sys.allocator().zone(0).pcp_pages() +
                     sys.allocator().zone(1).pcp_pages();
  const vm::VirtAddr va = sys.sys_mmap(t, 16 * kPageSize);
  for (int p = 0; p < 16; ++p) {
    const std::uint8_t b = 3;
    ASSERT_TRUE(sys.mem_write(t, va + p * kPageSize, {&b, 1}));
  }
  sys.exit_task(t);
  EXPECT_EQ(t.state(), TaskState::kExited);
  EXPECT_EQ(sys.find_task(t.id()), nullptr);
  const auto free1 = sys.allocator().global_free_pages() +
                     sys.allocator().zone(0).pcp_pages() +
                     sys.allocator().zone(1).pcp_pages();
  EXPECT_EQ(free0, free1);
  sys.allocator().verify();
}

TEST(System, PageTableFramesCharged) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = true;
  System sys(cfg);
  const auto before = sys.stats().table_frames;
  Task& t = sys.spawn("pt", 0);
  EXPECT_GT(sys.stats().table_frames, before);  // root charged at spawn
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(t, va, {&b, 1}));
  EXPECT_GE(sys.stats().table_frames, before + 4);
}

TEST(System, PagemapCapabilityGate) {
  System sys(small_cfg());
  Task& t = sys.spawn("proc", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(t, va, {&b, 1}));
  EXPECT_EQ(sys.sys_pagemap(t, va, false).pfn, 0u);
  EXPECT_EQ(sys.sys_pagemap(t, va, true).pfn, sys.translate(t, va));
}

TEST(System, PhysOfMatchesTranslate) {
  System sys(small_cfg());
  Task& t = sys.spawn("phys", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(t, va, {&b, 1}));
  EXPECT_EQ(sys.phys_of(t, va + 123),
            static_cast<dram::PhysAddr>(sys.translate(t, va)) * kPageSize + 123);
}

TEST(System, DataPersistsInDram) {
  System sys(small_cfg());
  Task& t = sys.spawn("dram", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 0x77;
  ASSERT_TRUE(sys.mem_write(t, va + 5, {&b, 1}));
  EXPECT_EQ(sys.dram().read_byte(sys.phys_of(t, va + 5)), 0x77);
}

// mem_fill must be indistinguishable from mem_write of a buffer of the fill
// byte: run both on identically built machines and compare what each left.
struct FillOutcome {
  std::vector<mm::Pfn> pfns;  ///< Frame behind each page, in page order.
  std::uint64_t page_faults = 0;
  std::uint64_t epoch_advance = 0;
  std::vector<std::uint8_t> bytes;  ///< The whole mapping, read back.
};

FillOutcome fill_outcome(bool use_fill, vm::VirtAddr offset,
                         std::uint64_t len, std::uint8_t value) {
  constexpr std::uint64_t kPages = 4;
  System sys(small_cfg());
  Task& t = sys.spawn("filler", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPages * kPageSize);
  FillOutcome o;
  const std::uint64_t epoch = sys.memory_epoch();
  if (use_fill) {
    EXPECT_TRUE(sys.mem_fill(t, va + offset, len, value));
  } else {
    const std::vector<std::uint8_t> buf(len, value);
    EXPECT_TRUE(sys.mem_write(t, va + offset, {buf.data(), buf.size()}));
  }
  o.epoch_advance = sys.memory_epoch() - epoch;
  o.page_faults = sys.stats().page_faults;
  for (std::uint64_t p = 0; p < kPages; ++p)
    o.pfns.push_back(sys.translate(t, va + p * kPageSize));
  o.bytes.resize(kPages * kPageSize);
  EXPECT_TRUE(sys.mem_read(t, va, {o.bytes.data(), o.bytes.size()}));
  return o;
}

TEST(System, MemFillMatchesMemWriteOfABroadcastBuffer) {
  // Unaligned start, crossing two page boundaries, ending mid-page.
  const vm::VirtAddr offset = 100;
  const std::uint64_t len = 2 * kPageSize + 300;
  const FillOutcome fill = fill_outcome(true, offset, len, 0xA5);
  const FillOutcome write = fill_outcome(false, offset, len, 0xA5);
  EXPECT_EQ(fill.bytes, write.bytes);
  EXPECT_EQ(fill.pfns, write.pfns);  // same demand-fault order
  EXPECT_EQ(fill.page_faults, write.page_faults);
  EXPECT_GT(fill.epoch_advance, 0u);
  EXPECT_EQ(fill.epoch_advance, write.epoch_advance);
  // Exactly the range was set; the fourth page was never touched.
  for (std::size_t i = 0; i < fill.bytes.size(); ++i) {
    const bool inside = i >= offset && i < offset + len;
    ASSERT_EQ(fill.bytes[i], inside ? 0xA5 : 0x00) << i;
  }
  EXPECT_EQ(fill.pfns[3], mm::kInvalidPfn);
}

TEST(System, MemFillClearsEccLiveFlipsLikeMemWrite) {
  for (const bool use_fill : {true, false}) {
    SystemConfig cfg = small_cfg();
    cfg.dram.ecc.enabled = true;
    System sys(cfg);
    Task& t = sys.spawn("ecc", 0);
    const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
    ASSERT_TRUE(sys.mem_fill(t, va, kPageSize, 0x00));
    // A live (ECC-tracked) flip in byte 64: reads correct it away...
    sys.dram().inject_flip(sys.phys_of(t, va + 64), 3);
    std::uint8_t b = 0xFF;
    ASSERT_TRUE(sys.mem_read(t, va + 64, {&b, 1}));
    EXPECT_EQ(b, 0x00);
    const std::uint64_t corrected = sys.dram().ecc_corrected_bits();
    EXPECT_GT(corrected, 0u);
    // ...until a store over the byte replaces the cell's contents. Had the
    // store left the live flip behind, the read would "correct" bit 3 of
    // the fresh value.
    if (use_fill) {
      ASSERT_TRUE(sys.mem_fill(t, va + 60, 8, 0x11));
    } else {
      const std::uint8_t buf[8] = {0x11, 0x11, 0x11, 0x11,
                                   0x11, 0x11, 0x11, 0x11};
      ASSERT_TRUE(sys.mem_write(t, va + 60, buf));
    }
    ASSERT_TRUE(sys.mem_read(t, va + 64, {&b, 1}));
    EXPECT_EQ(b, 0x11) << (use_fill ? "mem_fill" : "mem_write");
    EXPECT_EQ(sys.dram().ecc_corrected_bits(), corrected);
  }
}

TEST(System, MemFillOutsideVmaFails) {
  System sys(small_cfg());
  Task& t = sys.spawn("segv", 0);
  EXPECT_FALSE(sys.mem_fill(t, 0xdead0000, 16, 0x01));
  EXPECT_EQ(sys.stats().page_faults, 0u);
}

}  // namespace
}  // namespace explframe::kernel
