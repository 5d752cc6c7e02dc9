#include "mach/platforms_db.hpp"

#include "sim/time.hpp"

namespace opalsim::mach {

namespace {

// Pentium-class intrinsics (PGI compiler): hardware div/sqrt count as one
// flop each; exp/log expand to a short polynomial.  This is the paper's
// "best compiler sets a lower bound" counting.
hpm::IntrinsicCostTable pentium_intrinsics() {
  hpm::IntrinsicCostTable t;
  t.div = 1.0;
  t.sqrt = 1.0;
  t.exp = 6.0;
  return t;
}

// Pentium 200 memory hierarchy per the §2.6 trials: 50 KB working set in
// cache runs 1.09x the 8 MB in-core rate; the 120 MB out-of-core set
// collapses to 0.25x.
MemoryHierarchy pentium_memory() {
  MemoryHierarchy m;
  m.cache_bytes = 256 * 1024;        // P6 on-package L2
  m.core_bytes = 64 * 1024 * 1024;   // physical DRAM before swapping
  m.in_cache_factor = 1.09;
  m.in_core_factor = 1.00;
  m.out_of_core_factor = 0.25;
  return m;
}

}  // namespace

PlatformSpec cray_j90() {
  PlatformSpec p;
  p.name = "Cray J90 Classic";
  p.cpu.name = "J90 vector CPU";
  p.cpu.clock_mhz = 100.0;
  p.cpu.adjusted_mflops = 80.0;
  // Cray counting: iterative reciprocal (div=3), 8-flop vector sqrt, long
  // exp expansion, plus 10% vectorizing-transformation overhead.  This IS
  // the canonical work measure (hpm::canonical_cost_table).
  p.cpu.intrinsics = hpm::IntrinsicCostTable{1.0, 1.0, 3.0, 8.0,
                                             10.0, 0.0, 1.10};
  p.cpu.memory = MemoryHierarchy::flat();  // vector loads hide the hierarchy
  p.cpu.scalar_fraction = 0.10;            // vectorization off: ~10x slower
  p.net.kind = NetSpec::Kind::Daemon;
  p.net.name = "PVM/Sciddle over crossbar";
  p.net.hw_peak_MBps = 2000.0;
  p.net.observed_MBps = 3.0;
  p.net.latency_s = sim::milliseconds(10);
  p.sync_time_s = sim::milliseconds(5);
  return p;
}

PlatformSpec cray_t3e900() {
  PlatformSpec p;
  p.name = "Cray T3E-900";
  p.cpu.name = "Alpha 21164 (450 MHz)";
  p.cpu.clock_mhz = 450.0;
  p.cpu.adjusted_mflops = 52.0;
  // The T3E compiler software-pipelines and expands div/sqrt into long
  // Newton sequences: it counts ~1.63x the J90 flops for the same kernel.
  p.cpu.intrinsics = hpm::IntrinsicCostTable{1.0, 1.0, 10.0, 20.0,
                                             12.0, 0.0, 1.10};
  p.cpu.memory = MemoryHierarchy{96 * 1024, 256 * 1024 * 1024,
                                 1.05, 1.00, 0.30};
  p.net.kind = NetSpec::Kind::Switched;
  p.net.name = "T3E torus (MPI)";
  p.net.hw_peak_MBps = 350.0;
  p.net.observed_MBps = 100.0;
  p.net.latency_s = sim::microseconds(12);
  p.sync_time_s = sim::microseconds(20);
  return p;
}

PlatformSpec slow_cops() {
  PlatformSpec p;
  p.name = "Slow CoPs";
  p.cpu.name = "Pentium Pro (200 MHz)";
  p.cpu.clock_mhz = 200.0;
  p.cpu.adjusted_mflops = 50.0;
  p.cpu.intrinsics = pentium_intrinsics();
  p.cpu.memory = pentium_memory();
  p.net.kind = NetSpec::Kind::SharedBus;
  p.net.name = "shared 100BaseT Ethernet";
  p.net.hw_peak_MBps = 10.0;
  p.net.observed_MBps = 3.0;
  p.net.latency_s = sim::milliseconds(10);
  p.sync_time_s = sim::milliseconds(5);
  return p;
}

PlatformSpec smp_cops() {
  PlatformSpec p;
  p.name = "SMP CoPs";
  p.cpu.name = "2x Pentium Pro (200 MHz)";
  p.cpu.clock_mhz = 200.0;
  p.cpu.adjusted_mflops = 100.0;  // twin processors per node
  p.cpu.intrinsics = pentium_intrinsics();
  p.cpu.memory = pentium_memory();
  p.smp_width = 2;
  p.net.kind = NetSpec::Kind::Switched;
  p.net.name = "SCI shared-memory interconnect";
  p.net.hw_peak_MBps = 50.0;
  p.net.observed_MBps = 15.0;
  p.net.latency_s = sim::microseconds(25);
  p.sync_time_s = sim::microseconds(40);
  return p;
}

PlatformSpec fast_cops() {
  PlatformSpec p;
  p.name = "Fast CoPs";
  p.cpu.name = "Pentium Pro (400 MHz)";
  p.cpu.clock_mhz = 400.0;
  p.cpu.adjusted_mflops = 102.0;
  p.cpu.intrinsics = pentium_intrinsics();
  p.cpu.memory = pentium_memory();
  p.net.kind = NetSpec::Kind::Switched;
  p.net.name = "switched Myrinet";
  p.net.hw_peak_MBps = 125.0;
  p.net.observed_MBps = 30.0;
  p.net.latency_s = sim::microseconds(15);
  p.sync_time_s = sim::microseconds(25);
  return p;
}

PlatformSpec pentium200() {
  PlatformSpec p = slow_cops();
  p.name = "Pentium 200 (standalone)";
  return p;
}

PlatformSpec hippi_j90_cluster() {
  PlatformSpec p = cray_j90();
  p.name = "HIPPI J90 cluster";
  p.net.kind = NetSpec::Kind::Switched;
  p.net.name = "HIPPI (MPI, zero-copy)";
  p.net.hw_peak_MBps = 100.0;
  p.net.observed_MBps = 60.0;
  p.net.latency_s = sim::microseconds(200);
  p.sync_time_s = sim::microseconds(300);
  return p;
}

std::vector<PlatformSpec> prediction_platforms() {
  return {cray_t3e900(), cray_j90(), slow_cops(), smp_cops(), fast_cops()};
}

}  // namespace opalsim::mach
