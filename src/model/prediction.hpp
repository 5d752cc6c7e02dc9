// Performance prediction for alternative platforms (paper §4): combine the
// application parameters (invariant across machines) with per-platform key
// data — communication rate/overhead from Table 2, computation rates from
// Table 1 — to predict execution time and speedup without porting the code.
#pragma once

#include "mach/platform.hpp"
#include "model/analytic.hpp"
#include "opal/complex.hpp"
#include "opal/config.hpp"

namespace opalsim::model {

/// Exact average number of neighbours within `cutoff` for the complex's
/// current coordinates (one O(n^2) sweep): 2 * |{(i,j): r_ij <= c}| / n.
/// Unlike the bulk estimate ntilde_from_cutoff, this accounts for the finite
/// droplet's boundary.  Returns n when cutoff is non-positive.
double measured_ntilde(const opal::MolecularComplex& mc, double cutoff);

/// Extracts the model's application parameters from a concrete run setup.
/// Uses measured_ntilde for the cut-off (one O(n^2) sweep).
AppParams app_params_for(const opal::MolecularComplex& mc,
                         const opal::SimulationConfig& cfg, int servers);

/// Derives a target platform's model parameters from a reference
/// calibration (the paper keeps application parameters at their J90-fitted
/// level and scales the computation constants by the platforms' adjusted
/// rates; communication constants come from Table 2).  Throws
/// util::ConfigError("mach") unless mach::validate accepts both specs.
ModelParams derive_platform_params(const ModelParams& reference_fit,
                                   const mach::PlatformSpec& reference,
                                   const mach::PlatformSpec& target);

/// First-principles parameters straight from a platform datasheet (no
/// calibration run needed): computation constants from the kernel operation
/// mixes and the adjusted rate, communication from the network spec.
/// `a4_flops_per_center` is the canonical per-center sequential work.
/// Throws util::ConfigError("mach") unless mach::validate accepts the spec.
ModelParams theoretical_params(const mach::PlatformSpec& spec,
                               double a4_flops_per_center = 60.0);

}  // namespace opalsim::model
