// The five platforms of the paper's §4 study plus the standalone Pentium 200
// used for the §2.6 memory-hierarchy trials.  All numbers are from the
// paper's Tables 1 and 2; see DESIGN.md for how the "adjusted computation
// rate" and intrinsic-cost tables are derived.
#pragma once

#include <vector>

#include "mach/platform.hpp"

namespace opalsim::mach {

/// Cray J90 "Classic" vector SMP — the reference platform.  100 MHz vector
/// CPUs at 80 adjusted MFlop/s; communication through PVM/Sciddle at an
/// observed 3 MB/s and 10 ms latency despite the GB/s crossbar.
PlatformSpec cray_j90();

/// Cray T3E-900 MPP: 450 MHz Alpha nodes, 52 adjusted MFlop/s (its compiler
/// counts 1.63x the J90 flops), MPI at 100 MB/s observed / 12 us latency.
PlatformSpec cray_t3e900();

/// "Slow CoPs": single 200 MHz Pentium Pro nodes on shared 100BaseT
/// Ethernet (3 MB/s observed, 10 ms latency).
PlatformSpec slow_cops();

/// "SMP CoPs": twin 200 MHz Pentium Pro nodes (adjusted 100 MFlop/s per
/// node) with SCI interconnect (15 MB/s observed, 25 us).
PlatformSpec smp_cops();

/// "Fast CoPs": single 400 MHz Pentium Pro nodes with switched Myrinet
/// (30 MB/s observed, 15 us).
PlatformSpec fast_cops();

/// Standalone 200 MHz Pentium PC for the §2.6 memory-hierarchy study
/// (in-cache 1.09x / in-core 1.00x / out-of-core 0.25x).
PlatformSpec pentium200();

/// The machine the Opal developers were actually planning for (§3.1): a
/// cluster of Cray J90 SMPs interconnected by HIPPI, with a clean MPI-style
/// transport instead of the PVM daemon path.  Not part of the paper's §4
/// prediction set; provided for what-if studies.
PlatformSpec hippi_j90_cluster();

/// The §4 prediction set, in the paper's presentation order:
/// T3E-900, J90, slow CoPs, SMP CoPs, fast CoPs.
std::vector<PlatformSpec> prediction_platforms();

}  // namespace opalsim::mach
