// Checkpoint image contents and binary encoding.
//
// A RunSnapshot captures everything that determines a ParallelOpal run's
// future at a quiescent step boundary (engine queue empty, every coroutine
// parked on a mailbox or at the step-loop top): virtual clock and event
// sequencing, every RNG stream, MD state, middleware protocol state,
// fault-model dynamic state, and all metrics accumulators.  Restoring it
// into a freshly rebuilt engine/task graph continues the run such that every
// output — sweep CSV, metrics JSON, trace tail — is byte-identical to an
// uninterrupted execution (the ctest gate and tools/chaos/crash_harness.py
// both enforce this).
//
// Each layer owns the record of the state it holds, with a snapshot() that
// takes it and a restore() that checks it before applying it: sim::Engine,
// mach::Machine, pvm::PvmSystem, sciddle::Rpc, and in opal the client and
// the servers (ParallelOpal::ClientSnapshot / ServerSnapshot).  A
// RunSnapshot is those records in wire order; this module knows only how
// to encode them.  It links the layers below opal, and reads the opal
// records as plain structs without linking opal, which links it.
//
// Wire format (see DESIGN.md, "Checkpoint/restart"):
//
//   8 bytes   magic "OPALCKPT"
//   u32       version (kVersion)
//   payload   fields below, little-endian fixed-width (util/binio.hpp)
//   u32       CRC-32 over all preceding bytes (util/crc32.hpp)
//
// decode() verifies magic, version and CRC and throws util::FatalError
// (subsystem "ckpt") on any mismatch — a torn or corrupted image can never
// be half-applied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mach/platform.hpp"
#include "opal/parallel.hpp"
#include "pvm/pvm_system.hpp"
#include "sciddle/rpc.hpp"
#include "sim/engine.hpp"

namespace opalsim::ckpt {

inline constexpr char kMagic[8] = {'O', 'P', 'A', 'L', 'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kVersion = 2;

/// The checkpoint machinery's own counters.
struct Accounting {
  std::uint64_t images_written = 0;  ///< including the image holding this
  std::uint64_t bytes_written = 0;   ///< including the image holding this
  std::uint64_t deferred = 0;        ///< boundaries skipped (not quiescent)
};

struct RunSnapshot {
  /// Identity of the run configuration this image belongs to; resuming
  /// under a different config is refused.
  std::uint64_t config_fingerprint = 0;
  // (The image follows the engine record with a u64 that is always 0: the
  // per-LP clock count of the retired parallel engines, kept so the layout
  // is stable.)
  sim::Engine::Snapshot engine;
  opal::ParallelOpal::ClientSnapshot client;
  std::vector<opal::ParallelOpal::ServerSnapshot> servers;
  pvm::PvmSystem::Snapshot pvm;
  sciddle::Rpc::Snapshot rpc;
  mach::Machine::Snapshot machine;
  std::uint64_t sink_next_seq = 0;  ///< 0 when the run is untraced
  Accounting accounting;
};

/// Encodes a snapshot into a complete image (magic + version + payload +
/// CRC trailer), written once into a buffer of exactly encoded_size(s).
std::vector<std::uint8_t> encode(const RunSnapshot& s);

/// encode(s).size(), counted without encoding.  Every counter in the image
/// is fixed-width, so the size does not depend on the counters' values.
std::size_t encoded_size(const RunSnapshot& s);

/// Decodes and verifies an image; throws util::FatalError (subsystem
/// "ckpt") on bad magic, version mismatch, CRC failure, or truncation.
RunSnapshot decode(const std::vector<std::uint8_t>& image);

}  // namespace opalsim::ckpt
