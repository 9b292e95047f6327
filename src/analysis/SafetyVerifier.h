//===- analysis/SafetyVerifier.h - Static KEEP_LIVE verifier ---*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static GC-safety verifier (docs/ANALYSIS.md). Checks the paper's
/// Section 3 KEEP_LIVE invariant on IR: the base of every live derived
/// pointer must remain visible to the collector — its register neither
/// killed nor clobbered — at every point between the KEEP_LIVE and the
/// final use of its result. Three independent layers:
///
///  1. *Point checks* (verifyFunctionSafety, always on): walks every
///     program point with BaseLiveness facts and flags
///       - a Kill of a register that is still plain-live
///         ("kill_live_register"),
///       - a Kill of a base register while a derived pointer pinned to it
///         is live ("base_killed"),
///       - a redefinition of a base register while a derived pointer
///         pinned to it is live ("base_clobbered"), excluding the pointer
///         rebase writeback of the specialized ++/-- expansion.
///
///  2. *Kill-placement audit* (CheckKillPlacement, valid once insertKills
///     has run): strips every Kill, re-runs opt::insertKills, and diffs
///     the canonical placement against the actual one. A register killed
///     later than its extended death point is a false retention
///     ("kill_missing" at the canonical slot, "kill_spurious" at the
///     actual one). This is the static false-retention-free proof: the
///     module's register lifetimes are exactly the KEEP_LIVE-extended
///     minimum.
///
///  3. *Pass-to-pass continuity* (KeepLiveContinuity, each-pass mode): a
///     KEEP_LIVE may only disappear across an optimizer pass when its
///     derived value has no remaining uses (dead-code removal, or the
///     peephole's fold into a fused addressing mode). A KEEP_LIVE that
///     vanishes while its result is still consumed is a safety bug in
///     that pass ("keep_live_dropped"), attributed by name.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_ANALYSIS_SAFETYVERIFIER_H
#define GCSAFE_ANALYSIS_SAFETYVERIFIER_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gcsafe {
namespace analysis {

/// One structured verifier diagnostic. Kind strings are stable API
/// (gcsafe-lint-v1): kill_live_register, base_killed, base_clobbered,
/// kill_missing, kill_spurious, keep_live_dropped, structure.
struct SafetyDiag {
  std::string Function;
  uint32_t Block = 0;
  uint32_t Index = 0;         ///< Instruction index within the block.
  uint32_t SrcOffset = ~0u;   ///< Source byte offset (~0u unknown).
  std::string Pass;           ///< Offending pass, or "(lower)"/"(final)".
  std::string Kind;
  uint32_t Derived = ir::NoReg;
  uint32_t Base = ir::NoReg;
  std::string Message;
};

struct SafetyVerifyOptions {
  /// Pass name recorded in diagnostics.
  const char *Pass = "(final)";
  /// Run the kill-placement audit (layer 2). Only meaningful after
  /// insertKills has run; mid-pipeline checks disable it.
  bool CheckKillPlacement = true;
};

/// Runs layers 1 (and optionally 2) on one function, appending
/// diagnostics to \p Out. Returns true when nothing was found.
bool verifyFunctionSafety(const ir::Function &F,
                          const SafetyVerifyOptions &Options,
                          std::vector<SafetyDiag> &Out);

/// Every function of the module.
bool verifyModuleSafety(const ir::Module &M,
                        const SafetyVerifyOptions &Options,
                        std::vector<SafetyDiag> &Out);

/// Layer 3 state: per-function KEEP_LIVE snapshots across passes.
class KeepLiveContinuity {
public:
  /// Takes the baseline snapshot of \p F (pipeline entry).
  void record(const ir::Function &F);

  /// Flags KEEP_LIVEs that disappeared since the previous snapshot while
  /// their derived register still has uses; then re-snapshots. \p Pass is
  /// the pass that just ran.
  void check(const ir::Function &F, const char *Pass,
             std::vector<SafetyDiag> &Out);

private:
  /// Function name -> its KeepLive destinations, ascending.
  std::map<std::string, std::vector<uint32_t>> Snapshots;
};

/// Renders a diagnostic as one human-readable line.
std::string formatSafetyDiag(const SafetyDiag &D);

} // namespace analysis
} // namespace gcsafe

#endif // GCSAFE_ANALYSIS_SAFETYVERIFIER_H
