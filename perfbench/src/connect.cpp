// connect: one client in a closed loop. A user from a rotating enrolled pool
// receives a beacon, builds M.2, the router admits it, the user checks M.3;
// then the user seals a few data frames the router opens, and the session
// closes. Single-threaded; no batching, pool, URL scan, persistence or
// simulator work.
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace peace;

constexpr std::size_t kPool = 16;          // enrolled users, used in turn
constexpr std::size_t kFrames = 4;         // data frames per session
constexpr std::size_t kFrameBytes = 1400;  // one radio frame of payload
constexpr double kConnectsPerSecond = 40;  // nominal rate sizing a run

struct World {
  explicit World(const std::string& label) : d(label, kPool) {
    d.enroll("u", kPool);
    router = d.router(1, label + "/router");
  }
  Deployment d;
  std::unique_ptr<proto::MeshRouter> router;
};

class Connect final : public Workload {
 public:
  explicit Connect(const RunOptions& opt)
      : opt_(opt), connects_(op_budget(opt, kConnectsPerSecond, 20)) {}

  void setup() override {
    worlds_.push_back(std::make_unique<World>(seed_label(opt_, "world")));
  }

  PassResult run(std::size_t index, SpanLog& spans, Tally& tally) override {
    World& w = *worlds_.at(index);
    proto::MeshRouter& router = *w.router;
    crypto::Drbg payloads =
        crypto::Drbg::from_string(seed_label(opt_, "payloads"));
    const groupsig::OpCounters ops_before = router.verify_ops();
    const OpSnapshot curve_before = OpSnapshot::take();

    PassResult out;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < connects_; ++i) {
      proto::User& user = *w.d.members[i % kPool].user;
      const Timestamp now = 1'000'000 + 1000 * static_cast<Timestamp>(i);
      const Bytes m1 = spans.call("router.make_beacon", i, [&] {
        return router.make_beacon(now).to_bytes();
      });

      // The user's wait: from the beacon's arrival until both ends hold
      // the session, wire encoding included.
      const auto t0 = Clock::now();
      const auto m2 = spans.call("user.process_beacon", i, [&] {
        return user.process_beacon(proto::BeaconMessage::from_bytes(m1),
                                   now + 1);
      });
      if (!tally.expect(true, m2.has_value(), "beacon accepted")) continue;
      const Bytes m2_wire = m2->to_bytes();
      const auto admitted = spans.call("router.access_request", i, [&] {
        return router.handle_access_request(
            proto::AccessRequest::from_bytes(m2_wire), now + 2);
      });
      ++out.requests;
      if (!tally.expect(true, admitted.has_value(), "honest M.2 admitted"))
        continue;
      const Bytes m3_wire = admitted->confirm.to_bytes();
      auto session = spans.call("user.confirm", i, [&] {
        return user.process_access_confirm(
            proto::AccessConfirm::from_bytes(m3_wire));
      });
      const auto t1 = Clock::now();
      if (!tally.expect(true, session.has_value(), "M.3 verified")) continue;
      ++out.accepted;
      out.op_ms.add(ms_between(t0, t1));

      proto::Session* far = router.session(admitted->session_id);
      if (!tally.expect(true, far != nullptr, "router holds session")) continue;
      for (std::size_t f = 0; f < kFrames; ++f) {
        const Bytes payload = payloads.bytes(kFrameBytes);
        const auto opened = spans.call("session.frame", i, [&] {
          const Bytes wire = session->seal(payload).to_bytes();
          return far->open(proto::DataFrame::from_bytes(wire));
        });
        tally.expect(true, opened.has_value() && *opened == payload,
                     "data frame opened");
      }
      tally.expect(true, router.close_session(admitted->session_id),
                   "session closed");
    }
    out.wall_s = seconds_between(start, Clock::now());
    per_request_ops(router.verify_ops(), ops_before, curve_before,
                    out.requests, counts_);
    return out;
  }

  void layers(const PassResult&, const SpanLog& spans, Tally&,
              Layers& out) override {
    out.set("user.process_beacon_ms", spans.median_ms("user.process_beacon"));
    out.set("user.confirm_ms", spans.median_ms("user.confirm"));
    out.set("router.make_beacon_ms", spans.median_ms("router.make_beacon"));
    out.set("router.access_request_ms",
            spans.median_ms("router.access_request"));
    out.set("session.frame_us", spans.median_ms("session.frame") * 1000);
    counts_.add_to(out);
  }

  UnitInputs unit_inputs() override {
    const Deployment& d = worlds_.front()->d;
    return unit_inputs_from(d.no.gpk(), d.members, d.no.current_url(), 8, 1,
                            seed_label(opt_, "unit"));
  }

  const char* op_name() const override { return "connect"; }

 private:
  RunOptions opt_;
  std::size_t connects_;
  std::vector<std::unique_ptr<World>> worlds_;
  OpCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_connect(const RunOptions& opt) {
  return std::make_unique<Connect>(opt);
}

}  // namespace perfbench
