#include "liplib/dist/coordinator.hpp"

#include <chrono>

#include "liplib/serve/cache.hpp"
#include "liplib/support/check.hpp"

namespace liplib::dist {

Coordinator::Coordinator(CoordinatorOptions opts)
    : opts_(std::move(opts)),
      recorder_(opts_.clock_us),
      listener_([this](const std::string& payload) {
        return serve::Listener::Reply{handle_message(payload), false};
      }) {
  LIPLIB_EXPECT(opts_.shards >= 1, "coordinator needs at least one shard");
  campaign_spec_ = named_campaign_to_string(opts_.spec);
  // The job vector is built once just to learn the campaign's length
  // (mix-style batching could make it differ from spec.jobs); workers
  // rebuild their slices from the spec string.
  total_jobs_ = campaign::make_named_campaign(opts_.spec).size();
  slots_.resize(opts_.shards);
  stats_.shards_total = opts_.shards;
  if (opts_.trace) {
    // The campaign's trace: the caller's when it passed one, else the
    // campaign's own content hash — either way every shard's spans
    // share this one id, which is what joins the merged timeline.
    trace_id_ = opts_.parent.enabled()
                    ? opts_.parent.trace_id
                    : trace::derive_trace_id(serve::fnv1a64(campaign_spec_));
    root_span_ = trace::derive_span_id(trace_id_, opts_.parent.parent_span, 0);
  }
  registry_.describe("liplib_dist_outstanding_leases",
                     metrics::MetricType::kGauge,
                     "Shard leases currently outstanding.");
  registry_.describe("liplib_dist_shards_done", metrics::MetricType::kGauge,
                     "Shards whose partial aggregate has been merged.");
  registry_.describe("liplib_dist_redispatches_total",
                     metrics::MetricType::kCounter,
                     "Leases re-issued after their deadline expired.");
  registry_.describe("liplib_dist_duplicates_total",
                     metrics::MetricType::kCounter,
                     "Partials dropped by first-complete-wins dedup.");
}

std::uint64_t Coordinator::now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string Coordinator::handle_message(const std::string& payload) {
  Json id;
  try {
    const Json doc = Json::parse(payload);
    LIPLIB_EXPECT(doc.is_object(), "message must be a JSON object");
    const Json* rpc = doc.find("rpc");
    LIPLIB_EXPECT(rpc && rpc->is_string() &&
                      rpc->as_string() == kDistRpcSchema,
                  std::string("expected rpc \"") + kDistRpcSchema + "\"");
    const Json* msg = doc.find("msg");
    LIPLIB_EXPECT(msg && msg->is_string(), "missing 'msg'");
    const std::string& kind = msg->as_string();
    if (kind == "lease") return handle_lease().dump();
    if (kind == "result") {
      return handle_result(doc, payload.size()).dump();
    }
    if (kind == "status") return status_json().dump();
    if (kind == "metrics") {
      return Json::object()
          .set("rpc", kDistRpcSchema)
          .set("msg", "metrics")
          .set("content_type", "text/plain; version=0.0.4")
          .set("text", metrics_text())
          .dump();
    }
    if (kind == "trace") {
      return Json::object()
          .set("rpc", kDistRpcSchema)
          .set("msg", "trace")
          .set("doc", trace_json())
          .dump();
    }
    throw ApiError("unknown dist message '" + kind + "'");
  } catch (const std::exception& e) {
    return Json::object()
        .set("rpc", kDistRpcSchema)
        .set("msg", "error")
        .set("error", std::string(e.what()))
        .dump();
  }
}

Json Coordinator::handle_lease() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now = now_ms();
  // First pending shard, else the longest-expired lease (the straggler
  // re-dispatch path); lowest index wins ties so scheduling is stable.
  std::size_t pick = slots_.size();
  bool redispatch = false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == ShardState::kPending) {
      pick = i;
      redispatch = false;
      break;
    }
    if (slots_[i].state == ShardState::kLeased &&
        slots_[i].deadline_ms <= now &&
        (pick == slots_.size() ||
         slots_[i].deadline_ms < slots_[pick].deadline_ms)) {
      pick = i;
      redispatch = true;
    }
  }
  if (pick == slots_.size()) {
    if (stats_.shards_done == slots_.size()) {
      return Json::object().set("rpc", kDistRpcSchema).set("msg", "done");
    }
    return Json::object()
        .set("rpc", kDistRpcSchema)
        .set("msg", "wait")
        .set("retry_ms", opts_.wait_ms);
  }
  slots_[pick].state = ShardState::kLeased;
  slots_[pick].deadline_ms = now + opts_.lease_ms;
  stats_.leases_issued++;
  if (redispatch) stats_.redispatches++;
  if (opts_.trace) {
    // The lease span id is positional — (shard, attempt), never a
    // request-arrival sequence — so a re-run with the same schedule
    // derives the same ids.  The (index+1) << 32 shift keeps lease
    // salts disjoint from the merge span's fixed salt.
    slots_[pick].attempts++;
    slots_[pick].lease_span = trace::derive_span_id(
        trace_id_, root_span_,
        (static_cast<std::uint64_t>(pick + 1) << 32) |
            slots_[pick].attempts);
    slots_[pick].lease_ts_us = recorder_.now_us();
    if (redispatch) {
      root_events_.push_back({"dist.redispatch", recorder_.now_us()});
    }
  }
  const ShardManifest m = make_manifest(
      campaign_spec_, total_jobs_, opts_.base_seed, opts_.cycle_budget,
      shard_range(total_jobs_, pick, slots_.size()));
  Json resp = Json::object()
                  .set("rpc", kDistRpcSchema)
                  .set("msg", "lease")
                  .set("manifest", manifest_to_json(m));
  if (opts_.trace) {
    // The worker's spans will parent on this lease's span.
    resp.set("trace", trace::TraceContext{trace_id_, slots_[pick].lease_span}
                          .to_json());
  }
  return resp;
}

Json Coordinator::handle_result(const Json& doc, std::size_t payload_bytes) {
  const Json* partial = doc.find("partial");
  LIPLIB_EXPECT(partial, "result message: missing 'partial'");
  Partial p = partial_from_json(*partial);
  LIPLIB_EXPECT(p.manifest.campaign_hash == serve::fnv1a64(campaign_spec_) &&
                    p.manifest.campaign == campaign_spec_ &&
                    p.manifest.total_jobs == total_jobs_ &&
                    p.manifest.base_seed == opts_.base_seed &&
                    p.manifest.cycle_budget == opts_.cycle_budget,
                "result message: partial belongs to a different campaign");
  LIPLIB_EXPECT(p.manifest.shard.count == slots_.size() &&
                    p.manifest.shard.index < slots_.size(),
                "result message: shard index outside this plan");
  bool accepted = false;
  std::uint64_t lease_span = 0;
  std::uint64_t lease_ts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[p.manifest.shard.index];
    if (slot.state != ShardState::kDone) {
      // First complete wins; a later duplicate (the straggler whose
      // lease was re-dispatched) is byte-identical anyway and dropped.
      slot.state = ShardState::kDone;
      slot.aggregate = std::move(p.aggregate);
      stats_.shards_done++;
      stats_.bytes_merged += payload_bytes;
      accepted = true;
      lease_span = slot.lease_span;
      lease_ts = slot.lease_ts_us;
      if (stats_.shards_done == slots_.size()) done_cv_.notify_all();
    } else {
      stats_.duplicates++;
      if (opts_.trace) {
        root_events_.push_back({"dist.duplicate", recorder_.now_us()});
      }
    }
  }
  if (opts_.trace && accepted) {
    // The accepted shard's lease span (grant → merged result); the
    // straggler's spans are dropped with its duplicate partial so the
    // timeline keeps exactly one execute per shard.
    if (const Json* spans = doc.find("spans")) {
      for (trace::Span& s : trace::spans_from_json(*spans)) {
        recorder_.record(std::move(s));
      }
    }
    trace::Span lease;
    lease.trace_id = trace_id_;
    lease.span_id = lease_span;
    lease.parent_span = root_span_;
    lease.name = "dist.lease";
    lease.category = "dist";
    lease.track = "coordinator";
    lease.ts_us = lease_ts;
    lease.dur_us = recorder_.now_us() - lease_ts;
    lease.attrs.emplace_back(
        "shard", std::to_string(p.manifest.shard.index) + "/" +
                     std::to_string(p.manifest.shard.count));
    recorder_.record(std::move(lease));
  }
  return Json::object()
      .set("rpc", kDistRpcSchema)
      .set("msg", "ack")
      .set("accepted", accepted);
}

campaign::Aggregate Coordinator::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return stats_.shards_done == slots_.size(); });
  // Fold in shard order — the same left fold aggregate() runs over its
  // blocks, so the result is byte-identical to the unsharded run.
  const std::uint64_t merge_ts = opts_.trace ? recorder_.now_us() : 0;
  campaign::Aggregate merged;
  for (const Slot& slot : slots_) {
    merged = campaign::merge(merged, slot.aggregate);
  }
  if (opts_.trace) {
    trace::Span sp;
    sp.trace_id = trace_id_;
    sp.span_id = trace::derive_span_id(trace_id_, root_span_, 1);
    sp.parent_span = root_span_;
    sp.name = "dist.merge";
    sp.category = "dist";
    sp.track = "coordinator";
    sp.ts_us = merge_ts;
    sp.dur_us = recorder_.now_us() - merge_ts;
    sp.attrs.emplace_back("shards", std::to_string(slots_.size()));
    recorder_.record(std::move(sp));
  }
  return merged;
}

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Json Coordinator::status_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t pending = 0, leased = 0;
  for (const Slot& s : slots_) {
    if (s.state == ShardState::kPending) pending++;
    if (s.state == ShardState::kLeased) leased++;
  }
  return Json::object()
      .set("schema", "liplib.dist.status/1")
      .set("campaign", campaign_spec_)
      .set("campaign_hash", serve::fnv1a64(campaign_spec_))
      .set("total_jobs", static_cast<std::uint64_t>(total_jobs_))
      .set("shards",
           Json::object()
               .set("total", static_cast<std::uint64_t>(slots_.size()))
               .set("pending", static_cast<std::uint64_t>(pending))
               .set("leased", static_cast<std::uint64_t>(leased))
               .set("done",
                    static_cast<std::uint64_t>(stats_.shards_done)))
      .set("leases_issued", stats_.leases_issued)
      .set("redispatches", stats_.redispatches)
      .set("duplicates", stats_.duplicates)
      .set("bytes_merged", stats_.bytes_merged);
}

Json Coordinator::trace_json() const {
  std::vector<trace::Span> spans = recorder_.snapshot();
  // The campaign root is synthesized at scrape time so an in-flight
  // campaign still answers: it spans [start, now) and carries the
  // scheduling events (re-dispatches, duplicate drops).
  trace::Span root;
  root.trace_id = trace_id_;
  root.span_id = root_span_;
  root.parent_span = opts_.parent.parent_span;
  root.name = "dist.campaign";
  root.category = "dist";
  root.track = "coordinator";
  root.ts_us = start_us_;
  root.dur_us = recorder_.now_us() - start_us_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    root.events = root_events_;
    root.attrs.emplace_back("campaign", campaign_spec_);
    root.attrs.emplace_back("shards", std::to_string(slots_.size()));
  }
  spans.push_back(std::move(root));
  return trace::spans_to_json(std::move(spans));
}

std::string Coordinator::metrics_text() const {
  // Mirror the live slot states into the registry at scrape time; the
  // counters advance by delta so repeated scrapes stay monotone.
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t leased = 0;
    for (const Slot& s : slots_) {
      if (s.state == ShardState::kLeased) leased++;
    }
    registry_.gauge_set("liplib_dist_outstanding_leases", {},
                        static_cast<std::int64_t>(leased));
    registry_.gauge_set("liplib_dist_shards_done", {},
                        static_cast<std::int64_t>(stats_.shards_done));
    registry_.counter_add(
        "liplib_dist_redispatches_total", {},
        stats_.redispatches -
            registry_.counter_value("liplib_dist_redispatches_total", {}));
    registry_.counter_add(
        "liplib_dist_duplicates_total", {},
        stats_.duplicates -
            registry_.counter_value("liplib_dist_duplicates_total", {}));
  }
  return registry_.expose_text();
}

}  // namespace liplib::dist
