// Both sides of the wire as the end-to-end benchmark drives them.
//
// Server side: bench_dispatcher, the SmatchService handlers with each
// public engine and codec call in a ledger span. Phone side: the
// decomposed public calls RemoteClient makes (Keygen over the OPRF, then
// InitData + Enc + Auth and an upload; a query and Vf), each in a span.
// Both are checked at set-up to match SmatchService and RemoteClient
// byte for byte.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/key_server.hpp"
#include "core/service.hpp"
#include "ledger.hpp"
#include "net/session.hpp"

namespace e2e {

using namespace smatch;

/// k of every kNN answer (SmatchService's default).
inline constexpr std::size_t kTopK = 5;

/// Sees every request body a handler receives (the set-up wire check).
using Tap = std::function<void(MessageKind, BytesView)>;

/// The benchmark's FrameDispatcher: the SmatchService handlers with each
/// public engine and codec call wrapped in a ledger span.
inline FrameDispatcher bench_dispatcher(MatchServer& ms, KeyServer& ks, Tap tap = nullptr) {
  FrameDispatcher d;
  d.register_handler(MessageKind::kUpload, [&ms, tap](BytesView body) -> StatusOr<Bytes> {
    if (tap) tap(MessageKind::kUpload, body);
    Scope h(Layer::kHandler, body_req(body));
    std::optional<StatusOr<UploadMessage>> up;
    {
      Scope s(Layer::kCodec);
      up.emplace(UploadMessage::parse(body));
    }
    if (!up->is_ok()) return up->status();
    Status st;
    {
      Scope s(Layer::kIngest);
      st = ms.ingest(**up);
    }
    if (!st.is_ok()) return st;
    return Bytes{};
  });
  d.register_handler(MessageKind::kQuery, [&ms, tap](BytesView body) -> StatusOr<Bytes> {
    if (tap) tap(MessageKind::kQuery, body);
    Scope h(Layer::kHandler, body_req(body));
    std::optional<StatusOr<QueryRequest>> q;
    {
      Scope s(Layer::kCodec);
      q.emplace(QueryRequest::parse(body));
    }
    if (!q->is_ok()) return q->status();
    std::optional<StatusOr<QueryResult>> r;
    {
      Scope s(Layer::kMatch);
      r.emplace(ms.match(**q, kTopK));
    }
    if (!r->is_ok()) return r->status();
    Scope s(Layer::kCodec);
    return (*r)->serialize();
  });
  d.register_handler(MessageKind::kOprf, [&ks, tap](BytesView body) -> StatusOr<Bytes> {
    if (tap) tap(MessageKind::kOprf, body);
    Scope h(Layer::kHandler, body_req(body));
    Scope s(Layer::kKeyServerHandle);
    return ks.handle(body);
  });
  return d;
}

// ----------------------------------------------------------- phone calls

enum class OpKind : std::uint8_t { kEnroll, kQuery, kUpload };

inline std::string kind_name(OpKind k) {
  return k == OpKind::kEnroll ? "enroll" : k == OpKind::kQuery ? "query" : "upload";
}

struct OpSpec {
  OpKind kind;
  std::uint32_t user;  // population index (query/upload) or arrival profile
  UserId id;           // user id on the wire
  std::uint64_t due;   // ns after window start
};

struct OpRecord {
  bool started = false;
  bool ok = false;
  std::uint64_t start = 0, send = 0, done = 0;  // absolute ns
  std::string error;
  UploadMessage upload;                           // enroll/upload: what was sent
  std::uint64_t ope_hits = 0, ope_misses = 0;     // enroll/upload: OPE node cache
  std::vector<std::pair<UserId, Bytes>> entries;  // query: what came back
};

inline StatusOr<Bytes> timed_call(SessionClient& s, MessageKind kind, const Bytes& body,
                           OpRecord* rec) {
  Scope sc(Layer::kNetCall, body_req(body));
  if (rec) rec->send = now_ns();
  return s.call(kind, body);
}

/// InitData + Enc + Auth + kUpload, the calls of Client::make_upload.
inline Status phone_upload(const Client& c, SessionClient& s, RandomSource& rng, OpRecord* rec) {
  UploadMessage up;
  up.user_id = c.id();
  up.key_index = c.profile_key().index;
  std::vector<BigInt> mapped;
  {
    Scope sc(Layer::kInitData);
    mapped = c.init_data(rng);
  }
  {
    Scope sc(Layer::kEncryptChain);
    up.chain_cipher = c.encrypt_chain(mapped);
  }
  up.chain_cipher_bits = static_cast<std::uint32_t>(c.chain_cipher_bits());
  {
    Scope sc(Layer::kAuthToken);
    up.auth_token = c.make_auth_token(rng);
  }
  Bytes body;
  {
    Scope sc(Layer::kCodec);
    body = up.serialize();
  }
  StatusOr<Bytes> resp = timed_call(s, MessageKind::kUpload, body, rec);
  if (rec) rec->upload = std::move(up);
  return resp.is_ok() ? Status::ok() : resp.status();
}

/// Keygen over the wire (the calls of KeygenSession), then the upload.
inline Status phone_enroll(Client& c, SessionClient& s, const RsaPublicKey& pub, RandomSource& rng,
                    OpRecord* rec) {
  Bytes material;
  {
    Scope sc(Layer::kFuzzyVector);
    material = c.keygen().key_material(c.profile());
  }
  std::optional<RsaOprfClient> oprf;
  {
    Scope sc(Layer::kOprfBlind);
    oprf.emplace(pub, material, rng);
  }
  Bytes request;
  {
    Scope sc(Layer::kCodec);
    request = KeyRequest{c.id(), oprf->request().blinded}.serialize();
  }
  StatusOr<Bytes> resp = timed_call(s, MessageKind::kOprf, request, nullptr);
  if (!resp.is_ok()) return resp.status();
  std::optional<StatusOr<KeyResponse>> parsed;
  {
    Scope sc(Layer::kCodec);
    parsed.emplace(KeyResponse::parse(*resp));
  }
  if (!parsed->is_ok()) return parsed->status();
  ProfileKey key;
  {
    Scope sc(Layer::kOprfFinalize);
    try {
      key = FuzzyKeyGen::from_oprf_output(oprf->finalize({(*parsed)->evaluated}));
    } catch (const CryptoError& e) {
      return Status(StatusCode::kMalformedMessage, e.what());
    }
  }
  {
    Scope sc(Layer::kInstallKey);
    c.set_profile_key(std::move(key), c.auth().random_secret(rng));
  }
  return phone_upload(c, s, rng, rec);
}

/// kQuery round, parse, Vf with the echo check.
inline Status phone_query(const Client& c, SessionClient& s, std::uint32_t query_id,
                   std::uint64_t timestamp, OpRecord* rec) {
  const QueryRequest q = c.make_query(query_id, timestamp);
  Bytes body;
  {
    Scope sc(Layer::kCodec);
    body = q.serialize();
  }
  StatusOr<Bytes> resp = timed_call(s, MessageKind::kQuery, body, rec);
  if (!resp.is_ok()) return resp.status();
  std::optional<StatusOr<QueryResult>> result;
  {
    Scope sc(Layer::kCodec);
    result.emplace(QueryResult::parse(*resp));
  }
  if (!result->is_ok()) return result->status();
  std::optional<StatusOr<Client::VerifiedResult>> verified;
  {
    Scope sc(Layer::kVerifyResult);
    verified.emplace(c.verify_result(q, **result));
  }
  if (!verified->is_ok()) return verified->status();
  if (!(*verified)->all_verified()) {
    return Status(StatusCode::kMalformedMessage, "a returned entry failed Vf");
  }
  if (rec) {
    for (const auto& e : (*result)->entries) rec->entries.emplace_back(e.user_id, e.auth_token);
  }
  return Status::ok();
}

}  // namespace e2e
