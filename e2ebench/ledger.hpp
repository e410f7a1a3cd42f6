// Span ledger of the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own code, around each public
// call it makes into a layer of the system (the program itself is not
// instrumented for this). Every span carries its layer, start and end
// (steady clock, ns), the span that opened it on the same thread, and a
// request id:
//   * a phone-side operation root (Layer::kOp) carries the op index;
//   * a phone-side network call (Layer::kNetCall) and the server-side
//     handler root (Layer::kHandler) both carry the FNV-1a hash of the
//     request body, which is how a server span finds its caller without
//     touching the protocol bytes.
// Spans stay in per-thread memory while a window runs and are folded into
// per-op self times (fold()) and written out (write_csv()) afterwards.
// With tracing off a Scope costs one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t fnv1a(smatch::BytesView data) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

enum class Layer : std::uint8_t {
  kOp,               // phone-side root: service start -> op done
  kClientCreate,     // Client::create (a newly arriving phone)
  kFuzzyVector,      // FuzzyKeyGen::key_material (quantize + RS decode)
  kOprfBlind,        // RsaOprfClient construction (blinding)
  kOprfFinalize,     // RsaOprfClient::finalize + from_oprf_output
  kInstallKey,       // random_secret + Client::set_profile_key
  kInitData,         // Client::init_data
  kEncryptChain,     // Client::encrypt_chain (OPE)
  kAuthToken,        // Client::make_auth_token (pow_g + AES)
  kVerifyResult,     // Client::verify_result (Vf + echo check)
  kCodec,            // message serialize / parse, both sides
  kNetCall,          // SessionClient::call
  kHandler,          // server-side handler root
  kKeyServerHandle,  // KeyServer::handle
  kMatch,            // MatchServer::match
  kIngest,           // MatchServer::ingest
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"bench.op",           "core.client_create", "gf.fuzzy_vector",
                   "oprf.blind",         "oprf.finalize",      "core.install_key",
                   "core.init_data",     "ope.encrypt_chain",  "group.auth_token",
                   "core.verify_result", "core.codec",         "net.call",
                   "net.handler",        "core.key_server_handle", "core.match",
                   "core.ingest"};

struct Span {
  Layer layer;
  std::uint32_t parent;  // index in the same thread's buffer, or kNoParent
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t req;
};
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// Process-wide span recorder: one buffer per thread that ever recorded.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint32_t open(Layer layer, std::uint64_t req) {
    Buffer& b = local();
    std::lock_guard<std::mutex> lock(b.mu);
    const std::uint32_t parent = b.open.empty() ? kNoParent : b.open.back();
    const auto idx = static_cast<std::uint32_t>(b.spans.size());
    b.spans.push_back({layer, parent, now_ns(), 0, req});
    b.open.push_back(idx);
    return idx;
  }

  void close(std::uint32_t idx) {
    Buffer& b = local();
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(b.mu);
    b.spans[idx].end = t;
    b.open.pop_back();
  }

  /// Every thread's spans (call only while no traffic runs).
  [[nodiscard]] std::vector<std::vector<Span>> collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<Span>> out;
    for (auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      out.push_back(b->spans);
    }
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      b->spans.clear();
      b->open.clear();
    }
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
  };

  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      auto b = std::make_shared<Buffer>();
      b->spans.reserve(1 << 14);
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(b);
      mine = b.get();
    }
    return *mine;
  }

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span; records nothing while tracing is off.
class Scope {
 public:
  explicit Scope(Layer layer, std::uint64_t req = 0) {
    Tracer& t = Tracer::get();
    if (t.enabled()) idx_ = t.open(layer, req);
  }
  ~Scope() {
    if (idx_ != kNoParent) Tracer::get().close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t idx_ = kNoParent;
};

/// The request id a network call and its server handler share.
inline std::uint64_t body_req(smatch::BytesView body) {
  return Tracer::get().enabled() ? fnv1a(body) : 0;
}

/// Ledger layers: span layers plus the pieces of a network call that no
/// span covers on either side.
enum class Entry : std::uint8_t {
  kUnattributed,   // phone-side gaps inside an op not covered by a span
  kRequestPath,    // call start -> handler entry (incl. dispatch queue wait)
  kResponsePath,   // handler exit -> call return
  kHandlerSelf,    // handler time outside the timed engine/codec calls
  kFirstLayer,     // then one entry per Layer after kOp, kNetCall, kHandler
};

/// Per-op self time, ns, indexed by ledger slot (see slot_names()).
struct OpLedger {
  std::vector<double> self_ns;
  std::vector<std::uint32_t> entered;  // spans of that slot in the op
};

/// Ledger slot names, in slot order.
inline std::vector<std::string> slot_names() {
  std::vector<std::string> names = {"bench.unattributed", "net.request_path",
                                    "net.response_path", "net.handler_self"};
  for (std::size_t l = 0; l < kLayerNames.size(); ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kOp || layer == Layer::kNetCall || layer == Layer::kHandler) {
      continue;
    }
    names.emplace_back(kLayerNames[l]);
  }
  return names;
}

inline std::size_t slot_of(Layer layer) {
  std::size_t slot = static_cast<std::size_t>(Entry::kFirstLayer);
  for (std::size_t l = 0; l < static_cast<std::size_t>(layer); ++l) {
    const auto other = static_cast<Layer>(l);
    if (other == Layer::kOp || other == Layer::kNetCall || other == Layer::kHandler) {
      continue;
    }
    ++slot;
  }
  return slot;
}

/// Folds the collected spans into self time per op (ops indexed by the
/// kOp span's req). `unlinked` counts network calls whose server handler
/// span was not found (their whole duration is then request path).
inline std::vector<OpLedger> fold(const std::vector<std::vector<Span>>& threads,
                                  std::size_t num_ops, std::size_t* unlinked) {
  const std::size_t slots = slot_names().size();
  std::vector<OpLedger> ops(num_ops);
  for (auto& op : ops) {
    op.self_ns.assign(slots, 0.0);
    op.entered.assign(slots, 0);
  }

  // Server handler roots by request hash.
  struct HandlerRef {
    std::size_t thread;
    std::uint32_t idx;
  };
  std::unordered_map<std::uint64_t, HandlerRef> handlers;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (std::uint32_t i = 0; i < threads[t].size(); ++i) {
      const Span& s = threads[t][i];
      if (s.layer == Layer::kHandler && s.parent == kNoParent) {
        handlers.emplace(s.req, HandlerRef{t, i});
      }
    }
  }

  // Sum of direct children per span, per thread.
  std::vector<std::vector<double>> child_ns(threads.size());
  for (std::size_t t = 0; t < threads.size(); ++t) {
    child_ns[t].assign(threads[t].size(), 0.0);
    for (const Span& s : threads[t]) {
      if (s.parent != kNoParent) {
        child_ns[t][s.parent] += static_cast<double>(s.end - s.start);
      }
    }
  }

  auto book = [&](std::size_t op, std::size_t slot, double ns) {
    ops[op].self_ns[slot] += ns;
    ops[op].entered[slot] += 1;
  };

  // Phone-side spans: op id inherited from the root.
  *unlinked = 0;
  std::vector<std::pair<HandlerRef, std::size_t>> linked;  // handler -> op
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const auto& spans = threads[t];
    std::vector<std::size_t> op_of(spans.size(), num_ops);
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent == kNoParent) {
        if (s.layer == Layer::kOp && s.req < num_ops) op_of[i] = s.req;
      } else {
        op_of[i] = op_of[s.parent];
      }
      const std::size_t op = op_of[i];
      if (op >= num_ops) continue;
      const double dur = static_cast<double>(s.end - s.start);
      if (s.layer == Layer::kOp) {
        book(op, static_cast<std::size_t>(Entry::kUnattributed), dur - child_ns[t][i]);
      } else if (s.layer == Layer::kNetCall) {
        const auto h = handlers.find(s.req);
        if (h == handlers.end()) {
          ++*unlinked;
          book(op, static_cast<std::size_t>(Entry::kRequestPath), dur - child_ns[t][i]);
          continue;
        }
        const Span& hs = threads[h->second.thread][h->second.idx];
        book(op, static_cast<std::size_t>(Entry::kRequestPath),
             static_cast<double>(hs.start) - static_cast<double>(s.start));
        book(op, static_cast<std::size_t>(Entry::kResponsePath),
             static_cast<double>(s.end) - static_cast<double>(hs.end));
        linked.emplace_back(h->second, op);
      } else {
        book(op, slot_of(s.layer), dur - child_ns[t][i]);
      }
    }
  }

  // Server-side subtrees, attributed to the op of their caller.
  for (const auto& [ref, op] : linked) {
    const auto& spans = threads[ref.thread];
    book(op, static_cast<std::size_t>(Entry::kHandlerSelf),
         static_cast<double>(spans[ref.idx].end - spans[ref.idx].start) -
             child_ns[ref.thread][ref.idx]);
    // Descendants follow their root contiguously in open order.
    std::vector<bool> inside(spans.size() - ref.idx, false);
    inside[0] = true;
    for (std::uint32_t i = ref.idx + 1; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent == kNoParent || s.parent < ref.idx || !inside[s.parent - ref.idx]) break;
      inside[i - ref.idx] = true;
      book(op, slot_of(s.layer), static_cast<double>(s.end - s.start) - child_ns[ref.thread][i]);
    }
  }
  return ops;
}

/// Writes every span as CSV: thread,index,layer,parent,start_ns,end_ns,req.
inline void write_csv(const std::string& path, const std::vector<std::vector<Span>>& threads) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread,index,layer,parent,start_ns,end_ns,req\n";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (std::size_t i = 0; i < threads[t].size(); ++i) {
      const Span& s = threads[t][i];
      out << t << ',' << i << ',' << kLayerNames[static_cast<std::size_t>(s.layer)] << ','
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << ','
          << s.start << ',' << s.end << ',' << s.req << '\n';
    }
  }
}

}  // namespace e2e
