// The distributed campaign contract (liplib/dist): the shard planner
// tiles the job-index space, manifests reject tampering and foreign
// shards, and the deterministic merge is byte-identical to the
// single-process aggregate across the full shard-count × thread-count
// matrix.  The coordinator/worker transport is exercised over
// real loopback sockets, including the straggler path: a worker that
// takes a lease and dies must not lose the campaign — the shard is
// re-dispatched and the merged report still matches the golden bytes —
// and the listener path: a silent peer holds one connection thread, not
// the coordinator, an oversized frame gets an error frame, and memory
// does not grow with the connections served.  Last, every single-node
// mutation of each document one process reads from another is rejected
// with ApiError or rereads to itself.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/coordinator.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/dist/worker.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/serve/protocol.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/support/check.hpp"
#include "liplib/support/json.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/trace/trace.hpp"
#include "liplib/xir/xir.hpp"
#include "test_util.hpp"

namespace {

using namespace liplib;
using dist::Partial;
using dist::ShardManifest;

campaign::NamedCampaignSpec fuzz_spec(std::size_t jobs) {
  campaign::NamedCampaignSpec spec;
  spec.mode = "fuzz";
  spec.jobs = jobs;
  return spec;
}

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kBudget = 1u << 16;

/// The golden document: the whole campaign in one process.
std::string unsharded_bytes(const campaign::NamedCampaignSpec& spec,
                            unsigned threads) {
  const auto jobs = campaign::make_named_campaign(spec);
  campaign::EngineOptions opts;
  opts.threads = threads;
  opts.base_seed = kSeed;
  opts.cycle_budget = kBudget;
  const auto results = campaign::Engine(opts).run(jobs);
  return campaign::to_json(campaign::aggregate(results)).dump(2);
}

/// One shard's partial, exactly as `lidtool campaign --shard` builds it.
Partial run_shard(const campaign::NamedCampaignSpec& spec, unsigned threads,
                  std::size_t index, std::size_t count) {
  const auto jobs = campaign::make_named_campaign(spec);
  const auto range = dist::shard_range(jobs.size(), index, count);
  const std::vector<campaign::Job> slice(
      jobs.begin() + static_cast<std::ptrdiff_t>(range.lo),
      jobs.begin() + static_cast<std::ptrdiff_t>(range.hi));
  campaign::EngineOptions opts;
  opts.threads = threads;
  opts.base_seed = kSeed;
  opts.cycle_budget = kBudget;
  opts.index_base = range.lo;
  const auto results = campaign::Engine(opts).run(slice);
  Partial p;
  p.manifest = dist::make_manifest(dist::named_campaign_to_string(spec),
                                   jobs.size(), kSeed, kBudget, range);
  p.aggregate = campaign::aggregate(results);
  return p;
}

TEST(Dist, ShardPlannerTilesTheIndexSpace) {
  for (std::size_t total : {0u, 1u, 7u, 300u}) {
    for (std::size_t count : {1u, 2u, 3u, 8u}) {
      std::size_t next = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const auto r = dist::shard_range(total, i, count);
        EXPECT_EQ(r.lo, next);
        EXPECT_LE(r.hi - r.lo, total / count + 1);
        next = r.hi;
      }
      EXPECT_EQ(next, total);
    }
  }
  EXPECT_THROW(dist::shard_range(10, 0, 0), ApiError);
  EXPECT_THROW(dist::shard_range(10, 4, 4), ApiError);
}

TEST(Dist, ShardTokenParsesAndRejects) {
  EXPECT_EQ(dist::parse_shard_token("2/4"),
            (std::pair<std::size_t, std::size_t>{2, 4}));
  EXPECT_EQ(dist::parse_shard_token("0/1"),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  // Plain decimal digits only: signs and whitespace are malformed, not
  // wrapped (stoull reads "-0" as 0 and skips leading blanks).
  for (const char* bad : {"", "3", "/4", "2/", "4/4", "5/4", "a/4", "2/4x",
                          "2/0", "-1/4", "-0/4", " 1/4", "+1/4", "1/ 4",
                          "1/+4", "1/4 "}) {
    EXPECT_THROW(dist::parse_shard_token(bad), ApiError) << bad;
  }
}

TEST(Dist, NamedCampaignSpecStringRoundTrips) {
  campaign::NamedCampaignSpec spec;
  spec.mode = "fuzz";
  spec.jobs = 123;
  spec.policy = lip::StopPolicy::kCarloniStrict;
  spec.shape = campaign::FuzzSpec::Shape::kReconvergent;
  const std::string text = dist::named_campaign_to_string(spec);
  EXPECT_EQ(text, "mode=fuzz;jobs=123;policy=strict;shape=reconvergent");

  // Every accepted string re-renders byte for byte.
  for (const char* mode : {"fuzz", "lint", "probe", "prove"}) {
    for (const char* policy : {"variant", "strict"}) {
      for (const char* shape : {"composite", "reconvergent", "feedforward"}) {
        for (const char* jobs : {"0", "7", "300", "18446744073709551615"}) {
          const std::string accepted = std::string("mode=") + mode +
                                       ";jobs=" + jobs + ";policy=" +
                                       policy + ";shape=" + shape;
          EXPECT_EQ(dist::named_campaign_to_string(
                        dist::named_campaign_from_string(accepted)),
                    accepted);
        }
      }
    }
  }

  // Everything else is rejected: missing, repeated, reordered or unknown
  // fields, and job counts that are not plain decimal digits (a sign
  // or blank would otherwise wrap or hash apart from "jobs=7").
  for (const char* bad :
       {"mode=fuzz", "jobs=3", "mode=fuzz;jobs=x",
        "mode=fuzz;jobs=3;color=red",
        "mode=fuzz;jobs=-1;policy=variant;shape=composite",
        "mode=fuzz;jobs= 7;policy=variant;shape=composite",
        "mode=fuzz;jobs=+7;policy=variant;shape=composite",
        "mode=fuzz;jobs=07;policy=variant;shape=composite",
        "mode=fuzz;jobs=18446744073709551616;policy=variant;shape=composite",
        "mode=fuzz;jobs=7;shape=composite;policy=variant",
        "mode=fuzz;jobs=7;policy=variant;policy=variant;shape=composite",
        "mode=fuzz;jobs=7;policy=variant;shape=composite;"}) {
    EXPECT_THROW(dist::named_campaign_from_string(bad), ApiError) << bad;
  }

  // The retired evaluator field is an unknown field, named as such.
  try {
    dist::named_campaign_from_string(
        "mode=fuzz;jobs=3;policy=variant;shape=composite;engine=interp");
    ADD_FAILURE() << "a spec string with ';engine=' was accepted";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown field 'engine'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Dist, ManifestRoundTripsAndRejectsTampering) {
  const auto spec = fuzz_spec(30);
  const auto m = dist::make_manifest(dist::named_campaign_to_string(spec),
                                     30, kSeed, kBudget,
                                     dist::shard_range(30, 1, 3));
  const Json doc = dist::manifest_to_json(m);
  EXPECT_EQ(doc.find("schema")->as_string(), "liplib.shard/2");
  EXPECT_EQ(doc.find("engine"), nullptr);
  const auto back = dist::manifest_from_json(doc);
  EXPECT_EQ(dist::manifest_to_json(back).dump(), doc.dump());

  // A manifest of the previous schema (which carried an evaluator
  // name) is rejected with a message naming the expected schema.
  const Json old_schema = Json::object()
                              .set("schema", "liplib.shard/1")
                              .set("campaign", m.campaign)
                              .set("campaign_hash", m.campaign_hash)
                              .set("total_jobs", std::uint64_t{30})
                              .set("base_seed", kSeed)
                              .set("cycle_budget", kBudget)
                              .set("engine", "interp")
                              .set("shard", *doc.find("shard"));
  try {
    dist::manifest_from_json(old_schema);
    ADD_FAILURE() << "a liplib.shard/1 manifest was accepted";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("expected schema \"liplib.shard/2\""),
              std::string::npos)
        << e.what();
  }

  // A tampered spec string no longer matches the travelling hash.
  ShardManifest forged = m;
  forged.campaign = "mode=fuzz;jobs=31;policy=variant;shape=composite";
  EXPECT_THROW(dist::manifest_from_json(dist::manifest_to_json(forged)),
               ApiError);
  // A range that is not the planned slice of shard 1/3 is rejected.
  ShardManifest shifted = m;
  shifted.shard.lo = 9;
  EXPECT_THROW(dist::manifest_from_json(dist::manifest_to_json(shifted)),
               ApiError);
}

TEST(Dist, PartialDocumentRoundTrips) {
  const auto spec = fuzz_spec(24);
  const Partial p = run_shard(spec, 2, 1, 4);
  const Json doc = dist::partial_to_json(p.manifest, p.aggregate);
  const Partial back = dist::partial_from_json(doc);
  EXPECT_EQ(dist::partial_to_json(back.manifest, back.aggregate).dump(2),
            doc.dump(2));
}

// Satellite: the shard-determinism matrix.  1/2/4/8 shards × 1/2/8
// engine threads, all merging to the exact bytes of the unsharded
// aggregate over the 300-topology fuzz suite.
TEST(Dist, MergeMatrixIsByteIdenticalToUnsharded) {
  const auto spec = fuzz_spec(300);
  const std::string golden = unsharded_bytes(spec, /*threads=*/2);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      std::vector<Partial> parts;
      for (std::size_t i = 0; i < shards; ++i) {
        parts.push_back(run_shard(spec, threads, i, shards));
      }
      const auto merged = dist::merge_partials(std::move(parts));
      EXPECT_EQ(campaign::to_json(merged).dump(2), golden)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(Dist, MergeRejectsForeignAndIncompleteShards) {
  const auto spec = fuzz_spec(20);
  const Partial p0 = run_shard(spec, 1, 0, 2);
  const Partial p1 = run_shard(spec, 1, 1, 2);

  EXPECT_THROW(dist::merge_partials({}), ApiError);
  // Missing shard: gap at the tail.
  EXPECT_THROW(dist::merge_partials({p0}), ApiError);
  // Duplicate shard: overlap.
  EXPECT_THROW(dist::merge_partials({p0, p0, p1}), ApiError);
  // Foreign campaign: same layout, different base seed.
  Partial foreign = p1;
  foreign.manifest.base_seed = kSeed + 1;
  EXPECT_THROW(dist::merge_partials({p0, foreign}), ApiError);
  // Different job count entirely.
  const Partial other = run_shard(fuzz_spec(22), 1, 1, 2);
  EXPECT_THROW(dist::merge_partials({p0, other}), ApiError);
  // The two real halves do merge.
  const auto merged = dist::merge_partials({p0, p1});
  EXPECT_EQ(merged.total, 20u);
}

/// One liplib.dist/1 round trip on a fresh loopback connection; null
/// (and a test failure) when no answer arrives within 3 s.
Json dist_round_trip(std::uint16_t port, const Json& request) {
  const testutil::Socket conn(testutil::connect_loopback(port, 3));
  EXPECT_GE(conn.fd, 0);
  std::string payload;
  try {
    serve::write_frame(conn.fd, request.dump());
    if (serve::read_frame(conn.fd, payload)) return Json::parse(payload);
    ADD_FAILURE() << "the coordinator hung up without answering";
  } catch (const ApiError& e) {
    ADD_FAILURE() << "no answer: " << e.what();
  }
  return Json();
}

Json dist_message(const char* msg) {
  return Json::object().set("rpc", dist::kDistRpcSchema).set("msg", msg);
}

TEST(Dist, CoordinatorSurvivesAStragglerAndMergesGoldenBytes) {
  const auto spec = fuzz_spec(60);
  const std::string golden = unsharded_bytes(spec, /*threads=*/2);

  dist::CoordinatorOptions copts;
  copts.spec = spec;
  copts.base_seed = kSeed;
  copts.cycle_budget = kBudget;
  copts.shards = 4;
  copts.lease_ms = 250;  // fast re-dispatch of the dead worker's shard
  copts.wait_ms = 20;
  dist::Coordinator coord(copts);
  coord.start();
  ASSERT_NE(coord.port(), 0);

  // A worker that takes one lease and dies holding it.
  dist::WorkerOptions dead;
  dead.port = coord.port();
  dead.threads = 1;
  dead.die_after_lease = 1;
  const auto dead_stats = dist::run_worker(dead);
  EXPECT_EQ(dead_stats.leases, 1u);
  EXPECT_EQ(dead_stats.submitted, 0u);

  // Two honest workers finish the campaign, including the re-dispatch.
  dist::WorkerStats w1, w2;
  std::thread t1([&] {
    dist::WorkerOptions w;
    w.port = coord.port();
    w.threads = 2;
    w1 = dist::run_worker(w);
  });
  std::thread t2([&] {
    dist::WorkerOptions w;
    w.port = coord.port();
    w.threads = 2;
    w2 = dist::run_worker(w);
  });
  const auto merged = coord.wait();
  t1.join();
  t2.join();

  EXPECT_EQ(campaign::to_json(merged).dump(2), golden);
  const auto stats = coord.stats();
  EXPECT_EQ(stats.shards_done, 4u);
  EXPECT_GE(stats.leases_issued, 5u);  // 4 shards + the re-dispatch
  EXPECT_GE(stats.redispatches, 1u);
  EXPECT_GT(stats.bytes_merged, 0u);
  // Every shard was accepted from exactly one honest worker.
  EXPECT_EQ(w1.submitted + w2.submitted, 4u);
}

TEST(Dist, CoordinatorDedupsDuplicateResults) {
  const auto spec = fuzz_spec(8);
  dist::CoordinatorOptions copts;
  copts.spec = spec;
  copts.base_seed = kSeed;
  copts.cycle_budget = kBudget;
  copts.shards = 1;
  dist::Coordinator coord(copts);
  coord.start();

  const Json lease = dist_round_trip(coord.port(), dist_message("lease"));
  ASSERT_EQ(lease.find("msg")->as_string(), "lease");
  const auto manifest = dist::manifest_from_json(*lease.find("manifest"));
  EXPECT_EQ(manifest.shard.lo, 0u);
  EXPECT_EQ(manifest.shard.hi, 8u);

  const Partial p = run_shard(spec, 1, 0, 1);
  const Json submit = Json::object()
                          .set("rpc", dist::kDistRpcSchema)
                          .set("msg", "result")
                          .set("partial",
                               dist::partial_to_json(p.manifest,
                                                     p.aggregate));
  const Json first = dist_round_trip(coord.port(), submit);
  EXPECT_TRUE(first.find("accepted")->as_bool());
  // The straggler's identical copy: acknowledged but dropped.
  const Json second = dist_round_trip(coord.port(), submit);
  EXPECT_FALSE(second.find("accepted")->as_bool());
  // A partial from a different campaign is an error, not a merge.
  Partial foreign = run_shard(fuzz_spec(9), 1, 0, 1);
  const Json rejected = dist_round_trip(
      coord.port(), Json::object()
                        .set("rpc", dist::kDistRpcSchema)
                        .set("msg", "result")
                        .set("partial",
                             dist::partial_to_json(foreign.manifest,
                                                   foreign.aggregate)));
  EXPECT_EQ(rejected.find("msg")->as_string(), "error");

  const auto stats = coord.stats();
  EXPECT_EQ(stats.shards_done, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  // Every shard merged: further lease requests answer "done".
  const Json done = dist_round_trip(coord.port(), dist_message("lease"));
  EXPECT_EQ(done.find("msg")->as_string(), "done");
  coord.wait();
}

TEST(Dist, ServeRelaysDistStatus) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(12);
  copts.shards = 3;
  dist::Coordinator coord(copts);
  coord.start();

  serve::ServeContext ctx;
  const std::string payload = Json::object()
                                  .set("rpc", serve::kRpcSchema)
                                  .set("kind", "dist-status")
                                  .set("port", coord.port())
                                  .dump();
  const Json response = Json::parse(serve::handle_payload(payload, ctx));
  ASSERT_TRUE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("kind")->as_string(), "dist-status");
  const Json* result = response.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("schema")->as_string(),
            "liplib.serve.dist_status/1");
  const Json* status = result->find("coordinator");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->find("schema")->as_string(), "liplib.dist.status/1");
  EXPECT_EQ(status->find("shards")->find("total")->as_uint(), 3u);
  EXPECT_EQ(status->find("shards")->find("pending")->as_uint(), 3u);

  // A dead coordinator port answers with an error envelope, not a hang.
  const std::string refused =
      serve::handle_payload(Json::object()
                                .set("rpc", serve::kRpcSchema)
                                .set("kind", "dist-status")
                                .set("port", 1)
                                .dump(),
                            ctx);
  EXPECT_FALSE(Json::parse(refused).find("ok")->as_bool());
  // A missing port is a validation error.
  const std::string invalid =
      serve::handle_payload(Json::object()
                                .set("rpc", serve::kRpcSchema)
                                .set("kind", "dist-status")
                                .dump(),
                            ctx);
  EXPECT_FALSE(Json::parse(invalid).find("ok")->as_bool());
  // Both well-formed relays were counted under the new kind.
  EXPECT_EQ(ctx.requests_by_kind[static_cast<int>(
                                     serve::RequestKind::kDistStatus)]
                .value(),
            2u);
}

// A peer that connects and never speaks holds one connection thread, not
// the coordinator: status still answers, a worker still finishes the
// campaign, and destruction does not wait for the peer to leave.
TEST(Dist, ASilentPeerHoldsOneConnectionNotTheCoordinator) {
  const auto spec = fuzz_spec(12);
  const std::string golden = unsharded_bytes(spec, /*threads=*/1);
  dist::CoordinatorOptions copts;
  copts.spec = spec;
  copts.base_seed = kSeed;
  copts.cycle_budget = kBudget;
  copts.shards = 2;
  auto coord = std::make_unique<dist::Coordinator>(copts);
  coord->start();
  // Declared after the coordinator, so a failed assertion hangs the peer
  // up first and even a coordinator that serves inline can be destroyed.
  const testutil::Socket silent(testutil::connect_loopback(coord->port()));
  ASSERT_GE(silent.fd, 0);

  const Json status = dist_round_trip(coord->port(), dist_message("status"));
  ASSERT_TRUE(status.is_object());
  EXPECT_EQ(status.find("schema")->as_string(), "liplib.dist.status/1");

  dist::WorkerOptions w;
  w.port = coord->port();
  w.threads = 1;
  EXPECT_EQ(dist::run_worker(w).submitted, 2u);
  EXPECT_EQ(campaign::to_json(coord->wait()).dump(2), golden);

  const auto t0 = std::chrono::steady_clock::now();
  coord.reset();  // the silent peer is still connected
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

// The coordinator answers a framing violation the way the serve daemon
// does: an rpc/1 error frame, then a hang-up.
TEST(Dist, OversizedFrameGetsAnErrorFrameAndAHangUp) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(4);
  copts.shards = 1;
  dist::Coordinator coord(copts);
  coord.start();

  const testutil::Socket peer(testutil::connect_loopback(coord.port(), 3));
  ASSERT_GE(peer.fd, 0);
  // Declared length one byte past the 16 MiB frame limit.
  const char hdr[4] = {0x01, 0x00, 0x00, 0x01};
  ASSERT_EQ(::send(peer.fd, hdr, 4, MSG_NOSIGNAL), 4);
  std::string payload;
  ASSERT_TRUE(serve::read_frame(peer.fd, payload));
  const Json doc = Json::parse(payload);
  EXPECT_EQ(doc.find("rpc")->as_string(), serve::kRpcSchema);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find("exceeds the limit"),
            std::string::npos);
  EXPECT_FALSE(serve::read_frame(peer.fd, payload));  // hung up
}

// Workers open one connection per message, so the coordinator's memory
// must not grow with the connections it has served.
TEST(Dist, CoordinatorMemoryStopsGrowingWithTheConnectionCount) {
  dist::CoordinatorOptions copts;
  copts.spec = fuzz_spec(4);
  copts.shards = 1;
  dist::Coordinator coord(copts);
  coord.start();
  const auto grown_kib = testutil::vm_growth_over_connections_kib(
      coord.port(), dist_message("status").dump());
  ASSERT_TRUE(grown_kib.has_value());
  EXPECT_LT(*grown_kib, 64 << 10)
      << "VmSize grew " << *grown_kib << " KiB over 800 connections";
}

TEST(Dist, WorkerWithoutACoordinatorFailsLoudly) {
  dist::WorkerOptions w;
  w.port = 1;  // nothing listens here
  EXPECT_THROW(dist::run_worker(w), ApiError);
}

// ---- boundary documents: every single-node mutation ----------------------

/// Every single-node mutant of `doc`: each node replaced by each of nine
/// hostile values, and each object member removed.
std::vector<Json> single_node_mutants(const Json& doc) {
  std::vector<Json> out = {Json(),
                           Json(true),
                           Json(-1),
                           Json(1.5),
                           Json("x"),
                           Json::array(),
                           Json::object(),
                           Json(std::numeric_limits<std::uint64_t>::max()),
                           Json(0)};
  const auto& members = doc.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    // `doc` with member i's value replaced by `*with`, or dropped.
    auto rebuilt = [&](const Json* with) {
      Json copy = Json::object();
      for (std::size_t k = 0; k < members.size(); ++k) {
        if (k != i) copy.set(members[k].first, members[k].second);
        if (k == i && with) copy.set(members[k].first, *with);
      }
      return copy;
    };
    out.push_back(rebuilt(nullptr));
    for (const Json& m : single_node_mutants(members[i].second)) {
      out.push_back(rebuilt(&m));
    }
  }
  const auto& elements = doc.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    for (const Json& m : single_node_mutants(elements[i])) {
      Json copy = Json::array();
      for (std::size_t k = 0; k < elements.size(); ++k) {
        copy.push(k == i ? m : elements[k]);
      }
      out.push_back(std::move(copy));
    }
  }
  return out;
}

/// Feeds every single-node mutant of `seed`, as text, to `reread` (parse
/// the document, render it again).  Only ApiError may escape, and an
/// accepted mutant's rendering must reread to itself.  Returns the
/// number of mutants accepted.
template <class Reread>
std::size_t expect_rejected_or_fixed(const char* what, const Json& seed,
                                     Reread reread) {
  std::size_t accepted = 0;
  for (const Json& mutant : single_node_mutants(seed)) {
    const std::string text = mutant.dump();
    std::string rendered;
    try {
      rendered = reread(Json::parse(text)).dump();
    } catch (const ApiError&) {
      continue;
    }
    ++accepted;
    std::string again;
    try {
      again = reread(Json::parse(rendered)).dump();
    } catch (const ApiError& e) {
      again = std::string("rejected: ") + e.what();
    }
    EXPECT_EQ(again, rendered) << what << " mutant " << text;
  }
  return accepted;
}

// ROADMAP's fuzz invariant on every document one process reads from
// another: post-mortem bundles, shard manifests, partials, aggregates,
// span documents and trace contexts.  Each seed is a real document.
TEST(Boundary, EverySingleNodeMutationIsRejectedOrRereadsToItself) {
  // half_ring's worst-case bundle (examples/designs/half_ring.lid).
  const auto prog = xir::lower(graph::parse_netlist_string(R"(
process ctl 1 1
process plant 1 1
process est 1 1
channel ctl.0 -> plant.0 : H
channel plant.0 -> est.0 : H
channel est.0 -> ctl.0 : H
)"));
  telemetry::WatchdogOptions wopts;
  wopts.worst_case_occupancy = true;
  const auto bundle = telemetry::deadlock_evidence(
      prog, xir::screen_for_deadlock(prog, true), wopts);
  ASSERT_TRUE(bundle.has_value());
  ASSERT_FALSE(bundle->blame.empty());

  // Shard 1/2 of a 12-job fuzz campaign, and a span document recorded
  // for it.
  const Partial shard = run_shard(fuzz_spec(12), 1, 1, 2);
  const trace::TraceContext lease{trace::derive_trace_id(12), 0xfeed};
  trace::Recorder recorder([] { return std::uint64_t{5000000}; });
  trace::Span span;
  span.trace_id = lease.trace_id;
  span.span_id = trace::derive_span_id(lease.trace_id, lease.parent_span, 0);
  span.parent_span = lease.parent_span;
  span.name = "dist.worker.execute";
  span.category = "dist";
  span.track = "worker";
  span.ts_us = recorder.now_us();
  span.dur_us = 42;
  span.events.push_back({"dist.redispatch", span.ts_us + 1});
  span.attrs.emplace_back("shard", "1/2");
  recorder.record(std::move(span));

  std::size_t accepted = 0;
  accepted += expect_rejected_or_fixed(
      "post-mortem", bundle->to_json(), [](const Json& j) {
        return telemetry::PostMortem::from_json(j).to_json();
      });
  accepted += expect_rejected_or_fixed(
      "manifest", dist::manifest_to_json(shard.manifest), [](const Json& j) {
        return dist::manifest_to_json(dist::manifest_from_json(j));
      });
  accepted += expect_rejected_or_fixed(
      "partial", dist::partial_to_json(shard.manifest, shard.aggregate),
      [](const Json& j) {
        const Partial p = dist::partial_from_json(j);
        return dist::partial_to_json(p.manifest, p.aggregate);
      });
  accepted += expect_rejected_or_fixed(
      "aggregate", campaign::to_json(shard.aggregate), [](const Json& j) {
        return campaign::to_json(campaign::aggregate_from_json(j));
      });
  accepted += expect_rejected_or_fixed(
      "spans", recorder.to_json(), [](const Json& j) {
        return trace::spans_to_json(trace::spans_from_json(j));
      });
  accepted += expect_rejected_or_fixed(
      "trace context", lease.to_json(), [](const Json& j) {
        return trace::TraceContext::from_json(j).to_json();
      });
  EXPECT_GT(accepted, 0u);  // the accept path is exercised, not just rejects
}

}  // namespace
