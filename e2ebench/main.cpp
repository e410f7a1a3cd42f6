// End-to-end benchmark of the S-MATCH serving stack.
//
//   smatch_e2ebench --workload <enroll_paper|query_hot|mixed_durable>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--out <dir>] [--commit <id>] [--tree <digest>]
//
// One process plays both sides: a NetServer on loopback TCP whose
// handlers (bench_dispatcher) time the public engine calls — byte for
// byte the behaviour of SmatchService, checked at setup — in front of a
// KeyServer and a MatchServer (store-backed on mixed_durable), and a
// generator of phones that drives the decomposed public client calls
// (Client, RsaOprfClient, AuthScheme, SessionClient) — byte for byte the
// wire of RemoteClient, also checked at setup.
//
// Arrivals are open loop: a seeded Poisson schedule fixes when each op
// is due, the phone threads (at most nproc, one connection each) take
// ops in due order, and every latency is measured from the due time, so
// a stall is charged to every op it delays. Percentiles are exact, taken
// from the sorted raw samples.
//
// --trace 0 measures the end-to-end metrics (set-up repeated three
// times, one long nominal-rate window); --trace 1 runs an untraced and a
// traced nominal window, the capacity ladder and a primitive
// calibration, and reports the per-layer ledger (ledger.hpp). Every
// answer is checked (oracle kNN, Vf, echo, OPRF re-derivation, restart
// identity); the last stdout line is the JSON result, and the exit code
// is 1 when a correctness gate failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/smatch.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha2.hpp"
#include "group/modp_group.hpp"
#include "ledger.hpp"
#include "net/server.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/workload.hpp"
#include "store/store.hpp"
#include "oracle.hpp"
#include "phone.hpp"
#include "report.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using namespace smatch;

constexpr double kQuerierZipf = 0.5;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kSec = 1'000'000'000;
/// Every timed window opens with this much untimed traffic at its rate,
/// so that idle cores are awake and caches warm when timing starts.
constexpr double kWarmInSeconds = 0.5;

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool paper_sizes = false;     // k=64, RFC 3526 2048-bit group (else k=32, test_512)
  std::size_t population = 0;   // users enrolled during set-up
  std::size_t cardinality = 32;
  double zipf = 1.0;            // attribute value skew
  double nominal_rate = 0;      // ops/s offered in the nominal window
  double upload_share = 0;      // share of re-uploads (mixed_durable)
  bool store = false;
  double limit_ms = 0;          // capacity ladder p99 limit (0 = no ladder)
};

/// Nominal rates sit well below each workload's knee on a 4-core host:
/// enroll_paper keeps the four phone threads about a quarter busy,
/// query_hot runs at about half and mixed_durable at about two thirds of
/// the capacity their ladders find.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = {
      {.name = "enroll_paper",
       .why = "new users: OPRF keygen + InitData/Enc/Auth upload at paper sizes; phone "
              "crypto and the key server do the work",
       .paper_sizes = true,
       .population = 0,
       .cardinality = 32,
       .zipf = 1.0,
       .nominal_rate = 60},
      {.name = "query_hot",
       .why = "Zipf-hot queries over large key groups; MatchServer::match and Vf do the "
              "work, client encryption is idle",
       .population = 3000,
       .cardinality = 32,
       .zipf = 1.5,
       .nominal_rate = 600,
       .limit_ms = 10},
      {.name = "mixed_durable",
       .why = "re-uploads beside queries on the same hot groups, store-backed with paging, "
              "WAL and background maintenance",
       .population = 2000,
       .cardinality = 32,
       .zipf = 1.5,
       .nominal_rate = 300,
       .upload_share = 0.3,
       .store = true,
       .limit_ms = 20},
  };
  return w;
}

SchemeParams params_for(const WorkloadSpec& w) {
  SchemeParams p;
  p.attribute_bits = w.paper_sizes ? 64 : 32;
  p.rs_threshold = 8;
  return p;
}

// ----------------------------------------------------------------- stack

Bytes seed_bytes(std::uint64_t seed, const std::string& label, std::uint64_t i) {
  Bytes b = to_bytes(label);
  for (int k = 0; k < 8; ++k) b.push_back(static_cast<std::uint8_t>(seed >> (8 * k)));
  for (int k = 0; k < 8; ++k) b.push_back(static_cast<std::uint8_t>(i >> (8 * k)));
  return b;
}

struct Phone {
  std::unique_ptr<Transport> conn;
  std::unique_ptr<SessionClient> session;
};

/// One deployment: engines, server, phones, population, oracle.
/// Members are declared so that destruction runs phones -> server ->
/// engines.
struct Stack {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  SchemeParams params;
  std::shared_ptr<const ModpGroup> group;
  std::unique_ptr<scenario::Workload> profiles;
  ClientConfig config;
  std::unique_ptr<RsaKeyPair> rsa;  // the key server's key, for the OPRF oracle
  store::StoreOptions store_opts;
  std::unique_ptr<KeyServer> key_server;
  std::unique_ptr<MatchServer> match_server;
  std::unique_ptr<NetServer> net;
  std::vector<Client> population;
  std::unique_ptr<std::mutex[]> user_mu;  // a phone runs one upload at a time
  Oracle oracle;
  std::vector<std::size_t> query_pool;  // Zipf-hot population indices
  std::vector<std::size_t> hot_members; // re-upload targets (largest groups)
  std::size_t acked_enrolls = 0;        // identity-check enrolls (windows count the rest)
  std::uint64_t upload_bytes = 0;       // serialized population upload bytes
  std::vector<Phone> phones;
};

std::size_t phone_threads() {
  return std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

Status start_server(Stack& st) {
  const std::size_t cores = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  st.net = std::make_unique<NetServer>(bench_dispatcher(*st.match_server, *st.key_server));
  ServerConfig sc;
  sc.tcp_port = 0;
  sc.io_threads = 1;
  sc.dispatch_workers = std::min<std::size_t>(3, cores - 1);
  if (Status s = st.net->start(sc); !s.is_ok()) return s;
  for (std::size_t i = 0; i < phone_threads(); ++i) {
    auto conn = TcpTransport::connect("127.0.0.1", st.net->port(), std::chrono::milliseconds(5000));
    if (!conn.is_ok()) return conn.status();
    Phone p;
    p.conn = std::move(*conn);
    p.session = std::make_unique<SessionClient>(*p.conn, RetryPolicy{}, st.seed * 131 + i);
    st.phones.push_back(std::move(p));
  }
  return Status::ok();
}

/// Population build (enroll + ingest through the batch APIs), engines,
/// store, server start. Warm-up traffic is run by the caller.
StatusOr<std::unique_ptr<Stack>> build_stack(const WorkloadSpec& w, std::uint64_t seed,
                                             const std::string& store_dir) {
  auto st = std::make_unique<Stack>();
  st->spec = &w;
  st->seed = seed;
  st->params = params_for(w);
  st->group = std::make_shared<const ModpGroup>(w.paper_sizes ? ModpGroup::rfc3526_2048()
                                                              : ModpGroup::test_512());
  scenario::WorkloadConfig wc;
  wc.name = w.name;
  wc.num_users = w.population > 0 ? w.population : 4096;
  wc.num_attributes = 4;
  wc.cardinality = w.cardinality;
  wc.zipf_exponent = w.zipf;
  wc.seed = seed;
  st->profiles = std::make_unique<scenario::Workload>(scenario::Workload::generate(wc));
  st->config = make_client_config(st->profiles->spec(), st->params, st->group);

  // The OPRF key is deployment configuration, not workload input: a
  // fixed key keeps set-up time independent of the prime search.
  Drbg key_rng(seed_bytes(0x5e7c0de, "rsa", 1024));
  st->rsa = std::make_unique<RsaKeyPair>(RsaKeyPair::generate(key_rng, 1024));
  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  st->key_server = std::make_unique<KeyServer>(
      *st->rsa, KeyServerOptions{.requests_per_epoch = 0, .batch_threads = cores});
  st->match_server = std::make_unique<MatchServer>(
      ServerOptions{.num_shards = 4, .batch_threads = cores});

  ThreadPool pool(cores);
  Drbg setup_rng(seed_bytes(seed, "population", 0));
  std::vector<UploadMessage> uploads;
  if (w.population > 0) {
    st->population.reserve(w.population);
    for (std::size_t i = 0; i < w.population; ++i) {
      auto c = Client::create(static_cast<UserId>(i + 1), st->profiles->profile(i), st->config);
      if (!c.is_ok()) return c.status();
      st->population.push_back(std::move(*c));
    }
    std::vector<Client*> ptrs;
    for (auto& c : st->population) ptrs.push_back(&c);
    auto results = enroll_and_upload_batch(ptrs, *st->key_server, setup_rng, &pool);
    for (auto& r : results) {
      if (!r.is_ok()) return r.status();
      st->upload_bytes += r->serialize().size();
      uploads.push_back(std::move(*r));
    }
  }

  if (w.store) {
    st->store_opts.directory = store_dir;
    st->store_opts.durability.fsync = store::FsyncPolicy::kBatch;
    store::MaintenancePolicy& mp = st->store_opts.maintenance.policy;
    mp.background = true;
    mp.rotate_segment_bytes = 16 * 1024;
    mp.checkpoint_sealed_segments = 1;
    mp.min_interval = std::chrono::milliseconds(1000);
    mp.poll_interval = std::chrono::milliseconds(20);
    // Well below the population's ciphertext bytes, so groups page.
    st->store_opts.residency.memory_budget_bytes = st->upload_bytes * 2 / 5;
    if (Status s = st->match_server->attach_store(st->store_opts); !s.is_ok()) return s;
  }
  for (const Status& s : st->match_server->ingest_batch(uploads)) {
    if (!s.is_ok()) return s;
  }
  for (const auto& up : uploads) st->oracle.apply(up);
  st->user_mu = std::make_unique<std::mutex[]>(std::max<std::size_t>(1, w.population));

  if (w.population > 0) {
    // Querier popularity: Zipf over a seeded permutation of the users,
    // milder than the attribute skew so that queries spread over the
    // population (and so land in groups in proportion to their size)
    // instead of piling onto a handful of users.
    scenario::WorkloadConfig qc = wc;
    qc.zipf_exponent = kQuerierZipf;
    st->query_pool = scenario::Workload::generate(qc).query_sequence(100000);
    // Re-upload targets: members of the three largest key groups.
    std::vector<const std::vector<Oracle::Member>*> groups;
    for (const auto& [key, members] : st->oracle.groups()) groups.push_back(&members);
    std::sort(groups.begin(), groups.end(),
              [](auto* a, auto* b) { return a->size() > b->size(); });
    for (std::size_t g = 0; g < std::min<std::size_t>(3, groups.size()); ++g) {
      for (const auto& m : *groups[g]) st->hot_members.push_back(m.id - 1);
    }
    std::sort(st->hot_members.begin(), st->hot_members.end());
  }
  if (Status s = start_server(*st); !s.is_ok()) return s;
  return st;
}

// -------------------------------------------------------------- schedule

/// Seeded open-loop schedule: Poisson arrivals at `rate` for `seconds`.
/// The inputs depend only on (seed, label), never on earlier windows.
std::vector<OpSpec> make_schedule(const Stack& st, const std::string& label, std::uint64_t tag,
                                  double rate, double seconds) {
  Drbg rng(seed_bytes(st.seed, label, tag));
  auto uniform = [&rng] { return (static_cast<double>(rng.u64() >> 11) + 0.5) * 0x1.0p-53; };
  std::vector<OpSpec> ops;
  double t = 0;
  const double horizon = seconds * 1e9;
  const std::uint64_t id_base = (tag + 1) * 100000;
  for (;;) {
    t += -std::log(uniform()) / rate * 1e9;
    if (t >= horizon) break;
    OpSpec op{};
    op.due = static_cast<std::uint64_t>(t);
    if (st.spec->population == 0) {
      op.kind = OpKind::kEnroll;
      op.user = static_cast<std::uint32_t>(rng.u64() % st.profiles->num_users());
      op.id = static_cast<UserId>(id_base + ops.size());
    } else if (uniform() < st.spec->upload_share) {
      op.kind = OpKind::kUpload;
      op.user = static_cast<std::uint32_t>(st.hot_members[rng.u64() % st.hot_members.size()]);
      op.id = static_cast<UserId>(op.user + 1);
    } else {
      op.kind = OpKind::kQuery;
      op.user = static_cast<std::uint32_t>(st.query_pool[rng.u64() % st.query_pool.size()]);
      op.id = static_cast<UserId>(op.user + 1);
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------- window

struct Window {
  std::string label;
  std::uint64_t tag = 0;
  std::vector<OpSpec> ops;
  std::vector<OpRecord> rec;
  std::uint64_t t0 = 0;
  std::uint64_t cutoff_ns = 0;  // stop starting ops this long after t0 (0 = never)
  std::uint64_t warm_ns = 0;    // ops due earlier run and are checked, but not timed
  std::uint64_t end = 0;
};

void run_op(Stack& st, Phone& phone, const Window& w, std::size_t i, OpRecord& rec) {
  const OpSpec& op = w.ops[i];
  Drbg rng(seed_bytes(st.seed, w.label + "/op", w.tag * 10000000 + i));
  Status s;
  switch (op.kind) {
    case OpKind::kEnroll: {
      std::optional<StatusOr<Client>> c;
      {
        Scope sc(Layer::kClientCreate);
        c.emplace(Client::create(op.id, st.profiles->profile(op.user), st.config));
      }
      s = c->is_ok() ? phone_enroll(**c, *phone.session, st.key_server->public_key(), rng, &rec)
                     : c->status();
      if (c->is_ok()) {
        const ClientMetrics m = (*c)->metrics();
        rec.ope_hits = m.ope_cache_hits;
        rec.ope_misses = m.ope_cache_misses;
      }
      break;
    }
    case OpKind::kQuery:
      s = phone_query(st.population[op.user], *phone.session,
                      static_cast<std::uint32_t>(w.tag * 1000000 + i), i, &rec);
      break;
    case OpKind::kUpload: {
      std::lock_guard<std::mutex> lock(st.user_mu[op.user]);
      const Client& c = st.population[op.user];
      const ClientMetrics m0 = c.metrics();
      s = phone_upload(c, *phone.session, rng, &rec);
      const ClientMetrics m1 = c.metrics();
      rec.ope_hits = m1.ope_cache_hits - m0.ope_cache_hits;
      rec.ope_misses = m1.ope_cache_misses - m0.ope_cache_misses;
      break;
    }
  }
  rec.ok = s.is_ok();
  if (!s.is_ok()) rec.error = s.to_string();
}

void run_window(Stack& st, Window& w) {
  w.rec.assign(w.ops.size(), OpRecord{});
  std::atomic<std::size_t> next{0};
  w.t0 = now_ns() + 2 * kMs;
  std::vector<std::thread> threads;
  for (Phone& phone : st.phones) {
    threads.emplace_back([&st, &w, &next, &phone] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= w.ops.size()) return;
        const std::uint64_t due = w.t0 + w.ops[i].due;
        if (w.cutoff_ns && now_ns() > w.t0 + w.cutoff_ns) continue;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        OpRecord& rec = w.rec[i];
        rec.started = true;
        rec.start = now_ns();
        {
          Scope root(Layer::kOp, i);
          try {
            run_op(st, phone, w, i, rec);
          } catch (const std::exception& e) {
            rec.ok = false;
            rec.error = e.what();
          }
        }
        rec.done = now_ns();
      }
    });
  }
  for (auto& t : threads) t.join();
  w.end = now_ns();
}

struct WindowStats {
  std::size_t attempted = 0, failed = 0;
  std::vector<double> lat_ms;                       // every successful op
  std::map<OpKind, std::vector<double>> by_kind_ms; // per op kind
  std::vector<double> lag_ms;                       // start - due
  std::vector<std::string> errors;
};

WindowStats window_stats(const Window& w) {
  WindowStats s;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const OpRecord& r = w.rec[i];
    if (!r.started) continue;
    ++s.attempted;
    const double due = static_cast<double>(w.t0 + w.ops[i].due);
    if (!r.ok) {
      ++s.failed;
      if (s.errors.size() < 5) s.errors.push_back(r.error);
      continue;
    }
    if (w.ops[i].due < w.warm_ns) continue;
    s.lag_ms.push_back(std::max(0.0, (static_cast<double>(r.start) - due) / 1e6));
    const double ms = (static_cast<double>(r.done) - due) / 1e6;
    s.lat_ms.push_back(ms);
    s.by_kind_ms[w.ops[i].kind].push_back(ms);
  }
  return s;
}

// ---------------------------------------------------------------- checks

struct Gates {
  std::vector<std::pair<std::string, bool>> results;
  std::size_t queries_exact = 0, queries_ambiguous = 0, query_mismatches = 0;
  std::size_t enroll_checked = 0, enroll_mismatches = 0;
  void add(const std::string& name, bool ok) { results.emplace_back(name, ok); }
  [[nodiscard]] Json json() const {
    Json j;
    for (const auto& [name, ok] : results) j.b(name, ok);
    return j.n("queries_checked_exactly", static_cast<double>(queries_exact))
        .n("queries_checked_by_membership", static_cast<double>(queries_ambiguous))
        .n("query_mismatches", static_cast<double>(query_mismatches))
        .n("enrolls_rederived", static_cast<double>(enroll_checked))
        .n("enroll_mismatches", static_cast<double>(enroll_mismatches));
  }
  [[nodiscard]] bool all() const {
    for (auto& [n, ok] : results) {
      if (!ok) return false;
    }
    return query_mismatches == 0 && enroll_mismatches == 0;
  }
};

/// Checks a window's answers against the oracle and advances the oracle
/// by the window's acked uploads. A query is checked exactly when no
/// upload to its group overlapped it in time (its group state is then
/// fixed: every upload acked before it was sent); otherwise its entries
/// must still be distinct members of the querier's group, as many as
/// the group allows. Vf and the echo check already ran on the phone.
void check_window(Stack& st, const Window& w, Gates& g) {
  struct Upload {
    std::uint64_t send, ack;
    const UploadMessage* msg;
    bool ok;
  };
  std::map<Bytes, std::vector<Upload>, BytesLess> by_group;
  std::vector<Upload> acks;
  std::vector<std::size_t> queries;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const OpRecord& r = w.rec[i];
    if (!r.started) continue;
    if (w.ops[i].kind == OpKind::kUpload) {
      const Bytes* key = st.oracle.key_of(w.ops[i].id);
      Upload u{r.send, r.ok ? r.done : UINT64_MAX, &r.upload, r.ok};
      if (key) by_group[*key].push_back(u);
      if (r.ok) acks.push_back(u);
    } else if (w.ops[i].kind == OpKind::kQuery && r.ok) {
      queries.push_back(i);
    } else if (w.ops[i].kind == OpKind::kEnroll && r.ok) {
      acks.push_back(Upload{r.send, r.done, &r.upload, true});
    }
  }
  std::sort(acks.begin(), acks.end(), [](auto& a, auto& b) { return a.ack < b.ack; });
  std::sort(queries.begin(), queries.end(),
            [&](std::size_t a, std::size_t b) { return w.rec[a].send < w.rec[b].send; });
  std::size_t next_ack = 0;
  for (std::size_t qi : queries) {
    const OpRecord& r = w.rec[qi];
    while (next_ack < acks.size() && acks[next_ack].ack < r.send) {
      st.oracle.apply(*acks[next_ack].msg);
      ++next_ack;
    }
    const UserId q = w.ops[qi].id;
    const Bytes* key = st.oracle.key_of(q);
    bool ambiguous = false;
    if (key) {
      auto it = by_group.find(*key);
      if (it != by_group.end()) {
        for (const Upload& u : it->second) {
          if (u.send < r.done && u.ack > r.send) {
            ambiguous = true;
            break;
          }
        }
      }
    }
    if (!ambiguous) {
      ++g.queries_exact;
      if (st.oracle.knn(q, kTopK) != r.entries) ++g.query_mismatches;
      continue;
    }
    ++g.queries_ambiguous;
    const auto& members = st.oracle.group(q);
    std::set<UserId> ids;
    for (const auto& [id, token] : r.entries) {
      const bool member = std::any_of(members.begin(), members.end(),
                                      [&](const Oracle::Member& m) { return m.id == id; });
      if (!member || id == q || !ids.insert(id).second) ++g.query_mismatches;
    }
    if (r.entries.size() != std::min(kTopK, members.size() - 1)) ++g.query_mismatches;
  }
  for (; next_ack < acks.size(); ++next_ack) st.oracle.apply(*acks[next_ack].msg);
}

/// Enroll gate: the key index each phone derived over the wire equals a
/// direct derivation through RsaOprfServer::evaluate_direct.
void check_enrolls(Stack& st, const std::deque<Window>& windows, Gates& g) {
  const RsaOprfServer direct(*st.rsa);
  const FuzzyKeyGen keygen(st.params, st.config.attribute_probs.size());
  std::vector<std::pair<std::uint32_t, const Bytes*>> todo;
  for (const Window& w : windows) {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].kind == OpKind::kEnroll && w.rec[i].ok) {
        todo.emplace_back(w.ops[i].user, &w.rec[i].upload.key_index);
      }
    }
  }
  std::atomic<std::size_t> bad{0};
  ThreadPool pool(std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  pool.parallel_for(todo.size(), [&](std::size_t i) {
    const Bytes material = keygen.key_material(st.profiles->profile(todo[i].first));
    const ProfileKey key = FuzzyKeyGen::from_oprf_output(direct.evaluate_direct(material));
    if (key.index != *todo[i].second) bad.fetch_add(1);
  });
  g.enroll_checked += todo.size();
  g.enroll_mismatches += bad.load();
}

/// Setup gates: the decomposed phone calls put the same bytes on the
/// wire as RemoteClient, and bench_dispatcher answers like SmatchService.
void check_identity(Stack& st, Gates& g) {
  std::mutex mu;
  std::vector<std::pair<MessageKind, Bytes>> seen;
  Tap tap = [&](MessageKind k, BytesView body) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(k, Bytes(body.begin(), body.end()));
  };
  NetServer probe(bench_dispatcher(*st.match_server, *st.key_server, tap));
  ServerConfig sc;
  sc.tcp_port = 0;
  bool ok = probe.start(sc).is_ok();
  auto conn = TcpTransport::connect("127.0.0.1", probe.port(), std::chrono::milliseconds(5000));
  ok = ok && conn.is_ok();
  if (ok) {
    const UserId probe_id = 4000000000u;
    const Profile& profile = st.profiles->profile(0);
    auto a = Client::create(probe_id, profile, st.config);
    auto b = Client::create(probe_id, profile, st.config);
    ok = a.is_ok() && b.is_ok();
    if (ok) {
      Drbg r1(seed_bytes(st.seed, "identity", 0));
      RemoteClient remote(*a, **conn, st.key_server->public_key(), RetryPolicy{}, 7);
      ok = remote.enroll(r1).is_ok() && remote.upload(r1).is_ok() &&
           remote.query(77, 78).is_ok();
      const std::size_t split = seen.size();
      // A second connection and session seed: the first connection's
      // replay cache would otherwise answer the repeated request ids.
      Drbg r2(seed_bytes(st.seed, "identity", 0));
      auto conn2 =
          TcpTransport::connect("127.0.0.1", probe.port(), std::chrono::milliseconds(5000));
      ok = ok && conn2.is_ok();
      OpRecord rec;
      if (ok) {
        SessionClient session(**conn2, RetryPolicy{}, 8);
        ok = phone_enroll(*b, session, st.key_server->public_key(), r2, &rec).is_ok() &&
             phone_query(*b, session, 77, 78, nullptr).is_ok();
        (void)(*conn2)->close();
      }
      ok = ok && split == 3 && seen.size() == 6 &&
           std::equal(seen.begin(), seen.begin() + 3, seen.begin() + 3);
      st.acked_enrolls += 1;  // the probe user stays enrolled (same id both times)
      st.oracle.apply(rec.upload);
    }
  }
  g.add("wire_identical_to_RemoteClient", ok);
  if (conn.is_ok()) (void)(*conn)->close();
  probe.stop();

  // Same request frames through SmatchService and bench_dispatcher.
  SmatchService service(*st.match_server, *st.key_server, kTopK);
  const FrameDispatcher mine = bench_dispatcher(*st.match_server, *st.key_server);
  std::vector<std::pair<MessageKind, Bytes>> frames;
  for (const auto& [kind, body] : seen) frames.emplace_back(kind, body);
  frames.emplace_back(MessageKind::kQuery, QueryRequest{1, 2, 3999999999u}.serialize());
  frames.emplace_back(MessageKind::kUpload, to_bytes("not an upload"));
  frames.emplace_back(MessageKind::kOprf, to_bytes("not a key request"));
  bool same = !seen.empty();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Envelope e;
    e.request_id = 1000 + i;
    e.body = frames[i].second;
    const Bytes frame = e.serialize();
    SessionState s1, s2;
    same = same && service.dispatcher().dispatch(frames[i].first, frame, s1) ==
                       mine.dispatch(frames[i].first, frame, s2);
  }
  g.add("dispatcher_identical_to_SmatchService", same);
}

// ---------------------------------------------------------------- ladder

/// Offered-rate ladder: rung i = 10 * 1.05^i ops/s. A rung passes when
/// every op succeeds and the p99 of due-time latency meets the limit.
/// A growing backlog fails the rung: ops still queued when the probe's
/// arrivals end plus the limit are never started and count as misses,
/// like failed ops.
struct Ladder {
  struct Probe {
    double rate, p99_ms;
    bool pass;
  };
  double capacity = 0;
  std::vector<Probe> probes;

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      out += (i ? ", " : "") +
             Json().n("rate", p.rate).n("p99_ms", std::min(p.p99_ms, 1e9)).b("pass", p.pass).str();
    }
    return out + "]";
  }
};

double rung_rate(int i) { return 10.0 * std::pow(1.05, i); }

Ladder run_ladder(Stack& st, Gates& g, std::deque<Window>& kept,
                  std::size_t* attempted, std::size_t* failed) {
  Ladder out;
  const double limit = st.spec->limit_ms;
  auto probe = [&](int rung) {
    const double rate = rung_rate(rung);
    const double secs = std::max(1.5, 600.0 / rate) + kWarmInSeconds;
    Window w;
    w.label = "ladder";
    w.tag = 1 + static_cast<std::uint64_t>(rung);
    w.warm_ns = static_cast<std::uint64_t>(kWarmInSeconds * kSec);
    w.ops = make_schedule(st, w.label, w.tag, rate, secs);
    w.cutoff_ns = static_cast<std::uint64_t>(secs * 1e9 + limit * 1e6);
    run_window(st, w);
    const WindowStats s = window_stats(w);
    *attempted += s.attempted;
    *failed += s.failed;
    std::vector<double> lat = s.lat_ms;
    lat.resize(lat.size() + (w.ops.size() - s.attempted) + s.failed, 1e18);
    const double p99 = lat.empty() ? 1e18 : quantile(lat, 0.99);
    const bool pass = p99 <= limit && s.attempted == w.ops.size() && s.failed == 0;
    check_window(st, w, g);
    kept.push_back(std::move(w));
    out.probes.push_back({rate, p99, pass});
    return pass;
  };
  // Coarse steps of 8 rungs (x1.48) from the nominal rate until a rung
  // fails, then bisection down to one rung (5%).
  int lo = static_cast<int>(std::floor(std::log(st.spec->nominal_rate / 10.0) / std::log(1.05)));
  while (lo > 0 && !probe(lo)) lo -= 8;
  if (lo <= 0) return out;
  // At most six coarse steps (x10.5 over the nominal rate), which bounds
  // the ladder's run time; past them the bisection below only refines.
  int hi = lo + 8;
  for (int step = 0; step < 6 && probe(hi); ++step) {
    lo = hi;
    hi += 8;
  }
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.capacity = rung_rate(lo);
  return out;
}

// ----------------------------------------------------------- calibration

template <typename Fn>
double per_op_ns(std::size_t reps, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) fn();
    batches.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(reps));
  }
  return quantile(batches, 0.5);
}

std::vector<std::pair<std::string, double>> calibrate(const Stack& st) {
  std::vector<std::pair<std::string, double>> out;
  Drbg rng(seed_bytes(st.seed, "calibration", 0));
  const Bytes key = rng.bytes(32), msg = rng.bytes(64);
  std::atomic<std::uint8_t> sink{0};
  out.emplace_back("crypto.hmac_sha256_ns", per_op_ns(4000, [&] { sink.fetch_xor(hmac_sha256(key, msg)[0], std::memory_order_relaxed); }));
  out.emplace_back("crypto.sha256_64B_ns", per_op_ns(8000, [&] { sink.fetch_xor(Sha256::hash(msg)[0], std::memory_order_relaxed); }));
  const ModpGroup g2048 = ModpGroup::rfc3526_2048();
  const BigInt e = BigInt::random_bits(rng, 2048);
  out.emplace_back("bigint.modexp_2048_us",
                   per_op_ns(2, [&] { sink.fetch_xor(g2048.pow_g(e).to_bytes()[0], std::memory_order_relaxed); }) / 1e3);
  const BigInt x = BigInt::random_below(rng, st.rsa->n());
  out.emplace_back("bigint.rsa_crt_1024_us",
                   per_op_ns(40, [&] { sink.fetch_xor(st.rsa->private_op(x).to_bytes()[0], std::memory_order_relaxed); }) / 1e3);
  return out;
}

// ------------------------------------------------------------- reporting

/// Keeps every core busy with SCHED_IDLE spinners while it lives. Any
/// runnable thread of the system under test preempts them at once, so
/// they take no CPU from it; they only keep idle cores from halting, so
/// that the time a virtual machine takes to resume a halted core does
/// not enter the latencies measured.
class KeepAwake {
 public:
  KeepAwake() {
    const std::size_t k = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < k; ++i) {
      threads_.emplace_back([this] {
        sched_param p{};
        if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Measured parallelism: k-thread spin against a 1-thread spin.
struct Probe {
  double cold = 0, warm = 0;
};

Probe parallelism_probe() {
  const std::size_t k = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  auto spin = [](std::size_t threads, int units) {  // one unit is ~25 ms of work
    const auto t0 = now_ns();
    std::vector<std::thread> ts;
    std::atomic<std::uint64_t> sink{0};
    for (std::size_t i = 0; i < threads; ++i) {
      ts.emplace_back([&sink, units] {
        std::uint64_t x = 1;
        for (long j = 0; j < 20'000'000L * units; ++j) x = x * 6364136223846793005ull + 1;
        sink += x;
      });
    }
    for (auto& t : ts) t.join();
    return static_cast<double>(now_ns() - t0);
  };
  // The first burst after idle measures how fast idle cores come back;
  // the median of three after half a second of spinning measures the
  // parallelism delivered once they are awake.
  Probe p;
  p.cold = static_cast<double>(k) * spin(1, 1) / spin(k, 1);
  (void)spin(k, 20);
  std::vector<double> ratios;
  for (int r = 0; r < 3; ++r) ratios.push_back(static_cast<double>(k) * spin(1, 4) / spin(k, 4));
  p.warm = quantile(ratios, 0.5);
  return p;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
  std::string tree = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--tree") a.tree = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

std::uint64_t registry_count(const char* name) {
  return obs::Registry::global().counter(name)->load();
}

struct Counters {
  std::uint64_t comparisons = 0, retries = 0, shed = 0;
  // StoreMetrics::wal_bytes covers active segments only (it drops at each
  // rotation); the registry counter is cumulative.
  std::uint64_t wal_bytes = 0;
  store::StoreMetrics store;
};

Counters snapshot(const Stack& st) {
  Counters c;
  c.comparisons = st.match_server->comparisons();
  for (const Phone& p : st.phones) c.retries += p.session->stats().retries;
  c.shed = registry_count("smatch_net_shed_requests_total");
  c.wal_bytes = registry_count("smatch_store_wal_bytes_total");
  if (st.match_server->store()) c.store = st.match_server->store()->metrics();
  return c;
}

/// Raw per-op samples of a window as CSV (times relative to its start).
void write_ops_csv(const std::string& path, const Window& w) {
  std::ofstream out(path, std::ios::trunc);
  out << "kind,user,due_ns,start_ns,send_ns,done_ns,ok,timed\n";
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const OpRecord& r = w.rec[i];
    if (!r.started) continue;
    auto rel = [&](std::uint64_t t) { return static_cast<long long>(t - w.t0); };
    out << kind_name(w.ops[i].kind) << ',' << w.ops[i].id << ',' << w.ops[i].due << ','
        << rel(r.start) << ',' << (r.send ? rel(r.send) : -1) << ',' << rel(r.done) << ','
        << r.ok << ',' << (w.ops[i].due >= w.warm_ns) << '\n';
  }
}

/// OPE node-cache hits over lookups across a window's enrolls/uploads.
double ope_hit_share(const Window& w) {
  double hits = 0, lookups = 0;
  for (const OpRecord& r : w.rec) {
    hits += static_cast<double>(r.ope_hits);
    lookups += static_cast<double>(r.ope_hits + r.ope_misses);
  }
  return lookups > 0 ? hits / lookups : 0.0;
}

/// Key-group and traffic properties of the workload as it ran.
Json workload_properties(const Stack& st, const std::vector<const Window*>& windows,
                         double ope_hit_share) {
  Json j;
  std::vector<std::size_t> sizes;
  for (const auto& [key, members] : st.oracle.groups()) sizes.push_back(members.size());
  std::sort(sizes.rbegin(), sizes.rend());
  std::vector<std::pair<std::size_t, const Bytes*>> by_size;
  for (const auto& [key, members] : st.oracle.groups()) by_size.emplace_back(members.size(), &key);
  std::sort(by_size.rbegin(), by_size.rend());
  std::set<Bytes, BytesLess> top;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, by_size.size()); ++i) top.insert(*by_size[i].second);
  std::size_t queries = 0, in_top = 0, uploads = 0;
  std::uint64_t upload_bytes = 0;
  for (const Window* w : windows) {
    for (std::size_t i = 0; i < w->ops.size(); ++i) {
      if (w->ops[i].kind != OpKind::kQuery && w->rec[i].ok) {
        ++uploads;
        upload_bytes += w->rec[i].upload.serialize().size();
      }
      if (w->ops[i].kind != OpKind::kQuery || !w->rec[i].started) continue;
      ++queries;
      const Bytes* key = st.oracle.key_of(w->ops[i].id);
      if (key && top.count(*key)) ++in_top;
    }
  }
  std::string top_sizes = "[";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sizes.size()); ++i) {
    top_sizes += (i ? ", " : "") + std::to_string(sizes[i]);
  }
  top_sizes += "]";
  std::size_t users = 0;
  for (std::size_t s : sizes) users += s;
  j.n("groups", static_cast<double>(sizes.size()))
      .n("users", static_cast<double>(users))
      .raw("largest_group_sizes", top_sizes)
      .n("singleton_groups", static_cast<double>(std::count(sizes.begin(), sizes.end(), 1u)))
      .n("query_share_in_3_largest_groups",
         queries ? static_cast<double>(in_top) / static_cast<double>(queries) : 0.0)
      .n("ope_cache_hit_share", ope_hit_share);
  j.n("bytes_per_upload",
      uploads ? static_cast<double>(upload_bytes) / static_cast<double>(uploads) : 0.0);
  if (const store::ProfileStore* store = st.match_server->store()) {
    // The engine does not expose its resident bytes; the budget against
    // the population's bytes, and the page traffic it caused, stand in.
    const store::StoreMetrics m = store->metrics();
    j.n("population_ciphertext_bytes", static_cast<double>(st.upload_bytes))
        .n("residency_budget_bytes", static_cast<double>(st.store_opts.residency.memory_budget_bytes))
        .n("group_page_outs", static_cast<double>(m.pages_written))
        .n("group_page_ins", static_cast<double>(m.pages_read))
        .n("maintenance_cycles", static_cast<double>(m.maintenance_cycles));
  }
  return j;
}

/// Per-kind sample floor for p99: ten samples beyond it.
constexpr double kMinSamples = 1100;

/// Set-up: population build, engines and store, server start, warm-up
/// traffic. Built three times when set-up time is reported (its median
/// is the metric); the last deployment serves the run. Leaves the final
/// warm-up window in `windows`.
StatusOr<std::unique_ptr<Stack>> set_up(const WorkloadSpec& spec, const Args& args,
                                        const std::string& store_dir,
                                        std::deque<Window>& windows,
                                        std::vector<double>& setup_times) {
  std::unique_ptr<Stack> st;
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) {
    windows.clear();
    st.reset();
    std::filesystem::remove_all(store_dir);
    const auto t0 = now_ns();
    auto built = build_stack(spec, args.seed, store_dir);
    if (!built.is_ok()) return built.status();
    st = std::move(*built);
    Window& warm = windows.emplace_back();
    warm.label = "warmup";
    warm.ops = make_schedule(*st, warm.label, 0, spec.nominal_rate,
                             std::max(0.3, 20.0 / spec.nominal_rate));
    run_window(*st, warm);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return st;
}

/// Restart gate of the store-backed workload: live answers for a sample
/// of queriers (which must match the oracle), then a fresh engine on the
/// same directory must answer byte-identically. Returns the time from
/// creating that engine to its first answer (recover_s). Tears down the
/// serving stack.
double restart_check(Stack& st, Gates& gates) {
  std::vector<QueryRequest> sample;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto u = static_cast<UserId>(st.query_pool[(i * 7919) % st.query_pool.size()] + 1);
    sample.push_back(QueryRequest{static_cast<std::uint32_t>(5000000 + i), i, u});
  }
  std::vector<Bytes> live;
  bool oracle_ok = true;
  for (const auto& q : sample) {
    auto r = st.match_server->match(q, kTopK);
    live.push_back(r.is_ok() ? r->serialize() : Bytes{});
    std::vector<std::pair<UserId, Bytes>> got;
    if (r.is_ok()) {
      for (const auto& e : r->entries) got.emplace_back(e.user_id, e.auth_token);
    }
    oracle_ok = oracle_ok && r.is_ok() && got == st.oracle.knn(q.user_id, kTopK);
  }
  gates.add("live_answers_match_oracle", oracle_ok);

  st.phones.clear();
  st.net.reset();
  st.match_server.reset();
  const auto t0 = now_ns();
  MatchServer fresh(ServerOptions{.num_shards = 4});
  bool same = fresh.attach_store(st.store_opts).is_ok() && fresh.match(sample[0], kTopK).is_ok();
  const double recover_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t i = 0; same && i < sample.size(); ++i) {
    auto r = fresh.match(sample[i], kTopK);
    same = r.is_ok() && r->serialize() == live[i];
  }
  gates.add("restart_answers_identical", same);
  return recover_s;
}

/// What a traced window measured, for the per-layer metrics.
struct Traced {
  const Window* window = nullptr;
  std::vector<std::vector<Span>> spans;
  std::vector<OpLedger> ops;
  std::size_t unlinked = 0;
  Counters before, after;
};

/// Folds the traced window's spans into per-layer self time. Every slot
/// plus the queue wait plus the unattributed gaps adds back up to the
/// mean end-to-end latency; `residual` reports any drift (clock skew
/// between a call and its handler would show there). Fills `median_us`
/// with each slot's median self time over the ops that entered it.
Json fold_ledger(const Traced& t, std::map<std::string, double>& median_us,
                 double& mean_e2e_ms, double& unattributed_frac) {
  const Window& w = *t.window;
  const std::vector<std::string> names = slot_names();
  std::vector<double> e2e_ms, queue_ms;
  std::vector<std::size_t> timed;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const OpRecord& r = w.rec[i];
    if (!r.started || !r.ok || w.ops[i].due < w.warm_ns) continue;
    timed.push_back(i);
    const double due = static_cast<double>(w.t0 + w.ops[i].due);
    e2e_ms.push_back((static_cast<double>(r.done) - due) / 1e6);
    queue_ms.push_back((static_cast<double>(r.start) - due) / 1e6);
  }
  mean_e2e_ms = mean(e2e_ms);
  const double e2e_ns = mean_e2e_ms * 1e6;
  auto share = [&](double ns) { return e2e_ns > 0 ? ns / e2e_ns : 0.0; };
  Json j;
  double attributed_ns = mean(queue_ms) * 1e6, unattributed_ns = 0;
  j.raw("bench.queue_wait", Json()
                                .n("mean_self_us_per_op", mean(queue_ms) * 1e3)
                                .n("share_of_mean_e2e", share(mean(queue_ms) * 1e6))
                                .str());
  for (std::size_t slot = 0; slot < names.size(); ++slot) {
    std::vector<double> entered;
    double total = 0;
    for (std::size_t i : timed) {
      total += t.ops[i].self_ns[slot];
      if (t.ops[i].entered[slot]) entered.push_back(t.ops[i].self_ns[slot]);
    }
    const double mean_ns = timed.empty() ? 0 : total / static_cast<double>(timed.size());
    median_us[names[slot]] = quantile(entered, 0.5) / 1e3;
    (slot == static_cast<std::size_t>(Entry::kUnattributed) ? unattributed_ns : attributed_ns) +=
        mean_ns;
    j.raw(names[slot], Json()
                           .n("ops_entering", static_cast<double>(entered.size()))
                           .n("median_self_us", median_us[names[slot]])
                           .n("mean_self_us_per_op", mean_ns / 1e3)
                           .n("share_of_mean_e2e", share(mean_ns))
                           .str());
  }
  unattributed_frac = share(e2e_ns - attributed_ns);
  j.n("mean_e2e_us", e2e_ns / 1e3)
      .n("residual_us", (e2e_ns - attributed_ns - unattributed_ns) / 1e3)
      .n("unlinked_calls", static_cast<double>(t.unlinked));
  return j;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.out);
  const std::string tag = spec->name + "-seed" + std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  const std::string store_dir =
      (std::filesystem::absolute(args.out) / ("store-" + std::to_string(::getpid()))).string();

  const Probe probe = parallelism_probe();
  const KeepAwake keep_awake;
  Json env;
  env.s("commit", args.commit)
      .s("tree_digest", args.tree)
      .s("build_type", E2E_BUILD_TYPE)
      .s("smatch_obs", SMATCH_OBS_ENABLED ? "ON" : "OFF")
      .n("nproc", std::thread::hardware_concurrency())
      .n("seed", static_cast<double>(args.seed))
      .n("measured_parallelism_cold", probe.cold)
      .n("measured_parallelism", probe.warm)
      .n("phone_threads", static_cast<double>(phone_threads()));
  std::cout << "# env " << env.str() << std::endl;

  Gates gates;
  std::vector<double> setup_times;
  std::deque<Window> windows;
  auto built = set_up(*spec, args, store_dir, windows, setup_times);
  if (!built.is_ok()) {
    std::cerr << "set-up failed: " << built.status().to_string() << "\n";
    std::filesystem::remove_all(store_dir);
    return 2;
  }
  std::unique_ptr<Stack> st = std::move(*built);
  check_window(*st, windows.front(), gates);  // the warm-up's uploads feed the oracle
  check_identity(*st, gates);

  // An untraced run spends 90% of its seconds in one nominal window, at
  // least long enough that every op kind reported gets kMinSamples
  // samples. A traced run gives 30% each to an untraced window (at least
  // long enough for the pooled latency p99) and a traced one, and the
  // rest to the capacity ladder.
  const double min_share =
      spec->upload_share > 0 ? std::min(spec->upload_share, 1 - spec->upload_share) : 1.0;
  const double nominal_s =
      std::max((args.trace ? 0.3 : 0.9) * args.seconds,
               kMinSamples / (spec->nominal_rate * (args.trace ? 1.0 : min_share)));
  std::size_t attempted = 0, failed = 0;
  auto nominal_window = [&](const std::string& label, std::uint64_t wtag,
                            double seconds) -> const Window& {
    Window& w = windows.emplace_back();
    w.label = label;
    w.tag = wtag;
    w.warm_ns = static_cast<std::uint64_t>(kWarmInSeconds * kSec);
    w.ops = make_schedule(*st, w.label, wtag, spec->nominal_rate, seconds + kWarmInSeconds);
    run_window(*st, w);
    check_window(*st, w, gates);
    return w;
  };

  const Window& main_w = nominal_window("nominal", 900, nominal_s);
  const WindowStats ms = window_stats(main_w);
  attempted += ms.attempted;
  failed += ms.failed;
  std::optional<Traced> traced;
  Ladder ladder;
  if (args.trace) {
    traced.emplace();
    traced->before = snapshot(*st);
    Tracer::get().clear();
    Tracer::get().set_enabled(true);
    traced->window = &nominal_window("traced", 901, 0.3 * args.seconds);
    Tracer::get().set_enabled(false);
    traced->after = snapshot(*st);
    traced->spans = Tracer::get().collect();
    Tracer::get().clear();
    traced->ops = fold(traced->spans, traced->window->ops.size(), &traced->unlinked);
    const WindowStats ts = window_stats(*traced->window);
    attempted += ts.attempted;
    failed += ts.failed;
    if (spec->limit_ms > 0) ladder = run_ladder(*st, gates, windows, &attempted, &failed);
  }

  std::vector<const Window*> measured;
  for (const Window& w : windows) {
    if (w.label != "warmup") measured.push_back(&w);
  }
  if (spec->population == 0) {
    check_enrolls(*st, windows, gates);
    std::size_t acked = st->acked_enrolls;
    for (const Window& w : windows) {
      for (const OpRecord& r : w.rec) acked += r.ok ? 1 : 0;
    }
    gates.add("server_users_equal_acked_enrolls", st->match_server->num_users() == acked);
  }
  const Window& counted = traced ? *traced->window : main_w;
  const double ope_share = ope_hit_share(counted);
  const Json properties = workload_properties(*st, measured, ope_share);
  const double recover_s = spec->store ? restart_check(*st, gates) : 0.0;

  // ------------------------------------------------------------ metrics
  std::vector<std::pair<std::string, std::string>> table;  // printed: name -> value unit
  auto put = [&](Json& j, const std::string& name, double v, const std::string& unit) {
    j.raw(name, Json().n("value", v).s("unit", unit).str());
    const bool printed = std::any_of(table.begin(), table.end(),
                                     [&](const auto& row) { return row.first == name; });
    if (!printed) table.emplace_back(name, num(v) + " " + unit);
  };
  auto lat_of = [&](OpKind k) {
    auto it = ms.by_kind_ms.find(k);
    return it == ms.by_kind_ms.end() ? std::vector<double>{} : it->second;
  };
  const double setup_s = quantile(setup_times, 0.5);
  const double rss = peak_rss_mb();

  // Every end-to-end metric of the workload, under the issue's names;
  // a p99 only when ten samples lie beyond it.
  Json e2e_all, metrics, report, samples;
  if (!args.trace) put(e2e_all, "setup_s", setup_s, "s");
  for (OpKind k : {OpKind::kEnroll, OpKind::kQuery, OpKind::kUpload}) {
    const auto v = lat_of(k);
    if (v.empty()) continue;
    put(e2e_all, kind_name(k) + "_p50_ms", quantile(v, 0.5), "ms");
    if (beyond_p99(v.size()) >= 10) put(e2e_all, kind_name(k) + "_p99_ms", quantile(v, 0.99), "ms");
    samples.n(kind_name(k) + "_samples", static_cast<double>(v.size()))
        .n(kind_name(k) + "_beyond_p99", static_cast<double>(beyond_p99(v.size())));
  }
  if (traced && spec->limit_ms > 0) put(e2e_all, "capacity_rps", ladder.capacity, "ops/s");
  put(e2e_all, "failed_frac",
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0, "ratio");
  if (spec->store) put(e2e_all, "recover_s", recover_s, "s");
  put(e2e_all, "peak_rss_mb", rss, "MB");
  put(e2e_all, "latency_p50_ms", quantile(ms.lat_ms, 0.5), "ms");
  if (beyond_p99(ms.lat_ms.size()) >= 10) {
    put(e2e_all, "latency_p99_ms", quantile(ms.lat_ms, 0.99), "ms");
    put(e2e_all, "bench.generator_lag_p99_ms", quantile(ms.lag_ms, 0.99), "ms");
  }
  samples.n("latency_samples", static_cast<double>(ms.lat_ms.size()))
      .n("latency_beyond_p99", static_cast<double>(beyond_p99(ms.lat_ms.size())))
      .n("nominal_rate_ops_s", spec->nominal_rate)
      .n("nominal_window_s", nominal_s)
      .n("p99_limit_ms", spec->limit_ms)
      .raw("ladder_probes", ladder.json());
  if (!ms.errors.empty()) samples.s("first_error", ms.errors.front());

  if (!traced) {
    // The contract set: the metrics every workload measures.
    const std::tuple<const char*, double, const char*> e2e[] = {
        {"setup_s", setup_s, "s"},
        {"latency_p50_ms", quantile(ms.lat_ms, 0.5), "ms"},
        {"peak_rss_mb", rss, "MB"}};
    for (const auto& [name, value, unit] : e2e) {
      metrics.raw(name, Json().n("value", value).s("unit", unit).str());
    }
  } else {
    std::map<std::string, double> median_us;
    double traced_mean_ms = 0, unattributed = 0;
    report.raw("ledger", fold_ledger(*traced, median_us, traced_mean_ms, unattributed).str());
    std::size_t queries = 0;
    std::uint64_t upload_bytes = 0;
    for (std::size_t i = 0; i < counted.ops.size(); ++i) {
      const OpRecord& r = counted.rec[i];
      if (counted.ops[i].kind == OpKind::kQuery) {
        queries += r.started ? 1 : 0;
      } else if (r.ok) {
        upload_bytes += r.upload.serialize().size();
      }
    }
    const Counters& b = traced->before;
    const Counters& a = traced->after;
    auto per = [](std::uint64_t after, std::uint64_t before, double n) {
      return n > 0 ? static_cast<double>(after - before) / n : 0.0;
    };
    auto count = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    for (const char* slot : {"gf.fuzzy_vector", "oprf.blind", "oprf.finalize",
                             "core.key_server_handle", "core.init_data", "core.verify_result",
                             "ope.encrypt_chain", "group.auth_token", "core.match", "core.ingest",
                             "core.codec", "net.request_path", "net.response_path"}) {
      put(metrics, std::string(slot) + "_us", median_us[slot], "us");
    }
    put(metrics, "ope.cache_hit_ratio", ope_share, "ratio");
    put(metrics, "core.comparisons_per_query",
        per(a.comparisons, b.comparisons, static_cast<double>(queries)), "count");
    put(metrics, "net.retries", count(a.retries, b.retries), "count");
    put(metrics, "net.shed", count(a.shed, b.shed), "count");
    put(metrics, "store.wal_bytes_per_upload_byte",
        per(a.wal_bytes, b.wal_bytes, static_cast<double>(upload_bytes)), "ratio");
    put(metrics, "store.page_ins_per_query",
        per(a.store.pages_read, b.store.pages_read, static_cast<double>(queries)), "count");
    put(metrics, "store.maintenance_cycles",
        count(a.store.maintenance_cycles, b.store.maintenance_cycles), "count");
    put(metrics, "store.snapshots", count(a.store.snapshots, b.store.snapshots), "count");
    for (const auto& [name, v] : calibrate(*st)) {
      put(metrics, name, v, name.ends_with("_ns") ? "ns" : "us");
    }
    std::vector<double> lag = ms.lag_ms;
    const WindowStats ts = window_stats(counted);
    lag.insert(lag.end(), ts.lag_ms.begin(), ts.lag_ms.end());
    put(metrics, "bench.generator_lag_p99_ms", quantile(lag, 0.99), "ms");
    put(metrics, "bench.unattributed_frac", unattributed, "ratio");
    put(metrics, "bench.trace_overhead_frac",
        mean(ms.lat_ms) > 0 ? traced_mean_ms / mean(ms.lat_ms) - 1.0 : 0.0, "ratio");
    // End-to-end figures tracked here rather than gated: the tail, whose
    // run-to-run spread on a shared host exceeds any usable bound, and
    // those only some workloads have (0 where the workload has none).
    put(metrics, "latency_p99_ms", quantile(ms.lat_ms, 0.99), "ms");
    put(metrics, "capacity_rps", ladder.capacity, "ops/s");
    put(metrics, "recover_s", recover_s, "s");
    put(metrics, "upload_p50_ms", quantile(lat_of(OpKind::kUpload), 0.5), "ms");
    write_csv(args.out + "/spans-" + tag + ".csv", traced->spans);
  }

  const bool correct = gates.all();
  report.raw("env", env.str())
      .raw("end_to_end", e2e_all.str())
      .raw("samples", samples.str())
      .raw("gates", gates.json().str())
      .raw("workload_properties", properties.str());
  if (traced) report.raw("per_layer", metrics.str());

  write_ops_csv(args.out + "/ops-" + tag + ".csv", main_w);
  std::cout << "# workload " << spec->name << ": " << spec->why << "\n";
  for (const auto& [name, value] : table) std::cout << "# " << name << " = " << value << "\n";
  std::cout << "# report " << report.str() << "\n";
  {
    std::ofstream f(args.out + "/report-" + tag + ".json", std::ios::trunc);
    f << report.str() << "\n";
  }
  st.reset();
  std::filesystem::remove_all(store_dir);

  Json result;
  result.b("correct", correct)
      .n("attempted", static_cast<double>(std::max<std::size_t>(1, attempted)))
      .n("failed", static_cast<double>(failed))
      .raw("metrics", metrics.str());
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) {
    std::cerr << "usage: smatch_e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out dir] [--commit id] [--tree digest]\n";
    return 2;
  }
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::cerr << "smatch_e2ebench: " << e.what() << "\n";
    return 2;
  }
}
