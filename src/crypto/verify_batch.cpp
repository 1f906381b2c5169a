#include "crypto/verify_batch.h"

namespace lookaside::crypto {

void VerifyBatch::begin() {
  if (depth_ == 0) outcomes_.clear();
  ++depth_;
}

void VerifyBatch::end() {
  if (depth_ > 0 && --depth_ == 0) outcomes_.clear();
}

std::optional<bool> VerifyBatch::lookup(std::uint64_t key) const {
  const auto it = outcomes_.find(key);
  if (it == outcomes_.end()) return std::nullopt;
  return it->second;
}

void VerifyBatch::record(std::uint64_t key, bool outcome) {
  outcomes_.emplace(key, outcome);
}

}  // namespace lookaside::crypto
