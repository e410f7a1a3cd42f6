// Reference answers for the end-to-end benchmark's correctness gates.
#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "core/messages.hpp"

namespace e2e {

using smatch::BigInt;
using smatch::Bytes;
using smatch::UploadMessage;
using smatch::UserId;

/// Key-index order for the benchmark's maps (std::less<Bytes> trips a
/// GCC 12 -Wstringop-overread false positive).
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    const std::size_t n = std::min(a.size(), b.size());
    const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    return c != 0 ? c < 0 : a.size() < b.size();
  }
};

/// Brute-force kNN over the uploads the benchmark sent, with the order
/// and tie rules of MatchServer::match: a group sorted by (ciphertext,
/// user id), the querier located, then alternating lower/upper
/// neighbours, widening to one side when the other runs out.
class Oracle {
 public:
  struct Member {
    UserId id;
    BigInt cipher;
    Bytes token;
  };

  void apply(const UploadMessage& up) {
    auto it = group_of_.find(up.user_id);
    if (it != group_of_.end()) {
      auto& old = groups_[it->second];
      old.erase(std::find_if(old.begin(), old.end(),
                             [&](const Member& m) { return m.id == up.user_id; }));
      if (old.empty()) groups_.erase(it->second);
    }
    group_of_[up.user_id] = up.key_index;
    auto& g = groups_[up.key_index];
    auto pos = std::lower_bound(g.begin(), g.end(), up, [](const Member& m, const UploadMessage& u) {
      if (m.cipher != u.chain_cipher) return m.cipher < u.chain_cipher;
      return m.id < u.user_id;
    });
    g.insert(pos, Member{up.user_id, up.chain_cipher, up.auth_token});
  }

  [[nodiscard]] std::vector<std::pair<UserId, Bytes>> knn(UserId querier, std::size_t k) const {
    std::vector<std::pair<UserId, Bytes>> out;
    const auto& g = group(querier);
    std::size_t pos = 0;
    while (pos < g.size() && g[pos].id != querier) ++pos;
    if (pos == g.size()) return out;
    std::size_t lo = pos, hi = pos;
    while (out.size() < k && (lo > 0 || hi + 1 < g.size())) {
      if (lo > 0) {
        --lo;
        out.emplace_back(g[lo].id, g[lo].token);
        if (out.size() >= k) break;
      }
      if (hi + 1 < g.size()) {
        ++hi;
        out.emplace_back(g[hi].id, g[hi].token);
      }
    }
    return out;
  }

  [[nodiscard]] const std::vector<Member>& group(UserId u) const {
    static const std::vector<Member> empty;
    auto it = group_of_.find(u);
    if (it == group_of_.end()) return empty;
    return groups_.at(it->second);
  }
  [[nodiscard]] const Bytes* key_of(UserId u) const {
    auto it = group_of_.find(u);
    return it == group_of_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<Bytes, std::vector<Member>, BytesLess>& groups() const { return groups_; }

 private:
  std::map<Bytes, std::vector<Member>, BytesLess> groups_;
  std::map<UserId, Bytes> group_of_;
};

}  // namespace e2e
