// liplib/dist/shard.hpp
//
// The shard planner and deterministic merge of distributed campaigns.
//
// A campaign shards by job-index range alone: shard i of N owns the
// contiguous slice [total*i/N, total*(i+1)/N) of the full job vector.
// Because job identity (index, seed) is a pure function of the campaign
// spec — job seeds are SplitMix64 of (base_seed, global index), and the
// named-campaign builders construct identical job vectors from the same
// spec anywhere — a shard that runs its slice with
// EngineOptions::index_base = lo produces exactly the per-job results
// the unsharded run would have produced for those indices.
//
// Each shard exports a partial document ("liplib.dist.partial/1"): its
// manifest ("liplib.shard/2" — the campaign identity plus the range)
// and the aggregate of its slice.  merge_partials() validates that the
// manifests name the same campaign and that the ranges tile
// [0, total_jobs) exactly, then folds the partial aggregates with
// campaign::merge in range order.  Since merge is the same associative
// fold aggregate() itself uses, the merged document is byte-identical
// to the single-process aggregate at any shard count × thread count
// (docs/dist.md carries the full argument; tests/dist_test.cpp locks
// the matrix).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/support/json.hpp"

namespace liplib::dist {

/// Schema tag of a shard manifest.
inline constexpr const char* kShardSchema = "liplib.shard/2";
/// Schema tag of a partial-aggregate document.
inline constexpr const char* kPartialSchema = "liplib.dist.partial/1";

/// Shard i of N and the job-index slice [lo, hi) it owns.
struct ShardRange {
  std::size_t index = 0;  ///< shard number, 0-based
  std::size_t count = 1;  ///< total shards in the plan
  std::size_t lo = 0;     ///< first owned job index (global)
  std::size_t hi = 0;     ///< one past the last owned index
};

/// The plan: shard i of N owns [total*i/N, total*(i+1)/N) — the same
/// contiguous split the engine uses for its worker slices, so shard
/// sizes differ by at most one job.  Throws ApiError when count == 0 or
/// index >= count.
ShardRange shard_range(std::size_t total_jobs, std::size_t index,
                       std::size_t count);

/// Parses an "i/N" shard token (as in `lidtool campaign --shard 2/4`);
/// both numbers are plain decimal digits.  Throws ApiError on malformed
/// text (signs and whitespace included), N == 0 or i >= N.
std::pair<std::size_t, std::size_t> parse_shard_token(
    const std::string& text);

/// Identity of one shard of one campaign — everything the merge needs
/// to check that two partials belong together and that the reunited
/// ranges cover the whole campaign.
struct ShardManifest {
  /// Canonical campaign spec string (named_campaign_to_string for the
  /// coordinator transport; lidtool renders its CLI campaigns into the
  /// same role).  Two shards merge only if the strings match.
  std::string campaign;
  /// fnv1a64 of `campaign` — the content hash that travels in leases
  /// and partials so a stale worker cannot pollute a different sweep.
  std::uint64_t campaign_hash = 0;
  std::size_t total_jobs = 0;
  std::uint64_t base_seed = 1;
  std::uint64_t cycle_budget = 0;
  ShardRange shard;
};

/// Builds a manifest (fills campaign_hash from the spec string).
ShardManifest make_manifest(const std::string& campaign_spec,
                            std::size_t total_jobs, std::uint64_t base_seed,
                            std::uint64_t cycle_budget, ShardRange shard);

/// "liplib.shard/2" document of a manifest / its strict inverse.
/// manifest_from_json throws ApiError on malformed documents (another
/// schema tag included), on a campaign_hash that does not match the
/// spec string, and on a range that does not equal
/// shard_range(total_jobs, index, count).
Json manifest_to_json(const ShardManifest& m);
ShardManifest manifest_from_json(const Json& doc);

/// A shard's exported result: who it was plus what it measured.
struct Partial {
  ShardManifest manifest;
  campaign::Aggregate aggregate;
};

/// "liplib.dist.partial/1" document / its strict inverse.  The
/// aggregate travels as the standard "liplib.campaign.aggregate/2"
/// document, so a partial is also a readable campaign report on its
/// own.  partial_from_json additionally checks that the aggregate's
/// job count equals the manifest's range width.
Json partial_to_json(const ShardManifest& m, const campaign::Aggregate& agg);
Partial partial_from_json(const Json& doc);

/// Validates and merges partials into the campaign's full aggregate:
/// every manifest must name the same campaign (spec string, hash,
/// total_jobs, base_seed, cycle_budget) and the shard ranges
/// must tile [0, total_jobs) exactly — duplicates, gaps and overlaps
/// are all rejected with ApiError.  The fold runs in range order, so
/// the result is byte-identical (via campaign::to_json) to
/// aggregate() of the unsharded run.
campaign::Aggregate merge_partials(std::vector<Partial> parts);

/// Runs one shard: the manifest's [lo, hi) slice of `jobs` — the whole
/// campaign's job vector, which must hold manifest.total_jobs jobs — on
/// the campaign engine with the manifest's seed and budget and
/// index_base = lo, so every job keeps its global (index, seed)
/// identity.  `eopts` supplies threads and tracing; its seed, budget
/// and index_base are overwritten.  `stats` (optional) receives the
/// engine's run statistics.
Partial run_shard(const std::vector<campaign::Job>& jobs,
                  const ShardManifest& manifest,
                  campaign::EngineOptions eopts,
                  campaign::RunStats* stats = nullptr);

/// Canonical spec string of a named campaign
/// ("mode=fuzz;jobs=300;policy=variant;shape=composite") and its strict
/// inverse, which accepts only that canonical spelling (all four fields
/// once, in order, jobs in plain decimal digits), so an accepted string
/// re-renders byte for byte.  This is the wire form the coordinator leases to workers; both sides
/// rebuild the identical job vector from it via
/// campaign::make_named_campaign.
std::string named_campaign_to_string(const campaign::NamedCampaignSpec& spec);
campaign::NamedCampaignSpec named_campaign_from_string(
    const std::string& text);

}  // namespace liplib::dist
