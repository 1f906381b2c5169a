// Batched RSA verification (DESIGN.md §4k): per-resolve-step deduplication
// of identical signature checks before any bigint work runs.
//
// One recursive resolution verifies the same (signed data, signature, key)
// tuple more than once by construction: the validator checks a negative
// response's NSEC RRsets once to decide bogus-vs-secure and again when the
// aggressive cache ingests them, the trust chain re-verifies zone DNSKEY
// self-signatures per fetched response, and DLV label-stripping walks
// present the same wildcard-covering span at several candidate names. The
// batch groups those pending verifications under their 64-bit content key
// (the verdict cache's key: signed data ⊕ signature ⊕ key material ⊕ key
// tag) and answers repeats from the first outcome, so each distinct tuple
// costs exactly one modular exponentiation per batch window.
//
// Scope: a window opens at resolve() entry and closes at exit (re-entrant
// via a depth counter). Within the window outcomes are exact — the same
// bytes verify to the same bool — so dedup is observably free: control flow,
// counters billed to the virtual clock, and every byte of bench output are
// exactly what unbatched verification would produce. The validator's verdict cache
// (DESIGN.md §4j) sits in front and persists *across* resolutions; the
// batch only sees tuples the verdict cache missed (cache disabled, or an
// epoch flush landed mid-resolution), and hands its outcomes back through
// the verdict-cache write path so the `verdict.*` bills stay exact.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace lookaside::crypto {

class VerifyBatch {
 public:
  /// Opens a batch window (re-entrant: nested begins stack). The memo is
  /// cleared at the outermost begin, so stale outcomes never leak across
  /// resolutions.
  void begin();

  /// Closes one window level; the outermost end drops the memo.
  void end();

  [[nodiscard]] bool active() const { return depth_ > 0; }

  /// Outcome already computed for `key` in this window, else nullopt.
  [[nodiscard]] std::optional<bool> lookup(std::uint64_t key) const;

  /// Records the outcome of one executed verification.
  void record(std::uint64_t key, bool outcome);

 private:
  int depth_ = 0;
  std::unordered_map<std::uint64_t, bool> outcomes_;
};

/// RAII window over `batch.begin()` / `end()` for exception-safe scoping at
/// the resolver's front door.
class VerifyBatchScope {
 public:
  explicit VerifyBatchScope(VerifyBatch& batch) : batch_(&batch) {
    batch_->begin();
  }
  ~VerifyBatchScope() { batch_->end(); }
  VerifyBatchScope(const VerifyBatchScope&) = delete;
  VerifyBatchScope& operator=(const VerifyBatchScope&) = delete;

 private:
  VerifyBatch* batch_;
};

}  // namespace lookaside::crypto
