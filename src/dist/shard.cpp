#include "liplib/dist/shard.hpp"

#include <algorithm>
#include <charconv>

#include "liplib/serve/cache.hpp"
#include "liplib/support/check.hpp"

namespace liplib::dist {

namespace {

std::uint64_t uint_of(const Json& doc, const char* key) {
  const Json* f = doc.find(key);
  LIPLIB_EXPECT(f && f->is_number(),
                std::string("shard manifest: field '") + key +
                    "' must be an unsigned integer");
  return f->as_uint();
}

std::string string_of(const Json& doc, const char* key) {
  const Json* f = doc.find(key);
  LIPLIB_EXPECT(f && f->is_string(),
                std::string("shard manifest: field '") + key +
                    "' must be a string");
  return f->as_string();
}

/// Plain decimal digits only: no sign, no whitespace, no trailing
/// bytes, no overflow (std::stoull would accept " 7", "+7" and "-1").
bool parse_digits(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && p == end;
}

}  // namespace

ShardRange shard_range(std::size_t total_jobs, std::size_t index,
                       std::size_t count) {
  LIPLIB_EXPECT(count >= 1, "shard count must be at least 1");
  LIPLIB_EXPECT(index < count,
                "shard index " + std::to_string(index) +
                    " out of range for " + std::to_string(count) +
                    " shard(s)");
  ShardRange r;
  r.index = index;
  r.count = count;
  r.lo = total_jobs * index / count;
  r.hi = total_jobs * (index + 1) / count;
  return r;
}

std::pair<std::size_t, std::size_t> parse_shard_token(
    const std::string& text) {
  const auto slash = text.find('/');
  LIPLIB_EXPECT(slash != std::string::npos && slash > 0 &&
                    slash + 1 < text.size(),
                "--shard expects i/N (e.g. 2/4), got '" + text + "'");
  auto to_size = [&](const std::string& part) {
    std::uint64_t v = 0;
    LIPLIB_EXPECT(parse_digits(part, &v),
                  "--shard expects i/N (e.g. 2/4), got '" + text + "'");
    return static_cast<std::size_t>(v);
  };
  const std::size_t index = to_size(text.substr(0, slash));
  const std::size_t count = to_size(text.substr(slash + 1));
  LIPLIB_EXPECT(count >= 1 && index < count,
                "--shard " + text + " out of range (need 0 <= i < N)");
  return {index, count};
}

ShardManifest make_manifest(const std::string& campaign_spec,
                            std::size_t total_jobs, std::uint64_t base_seed,
                            std::uint64_t cycle_budget, ShardRange shard) {
  ShardManifest m;
  m.campaign = campaign_spec;
  m.campaign_hash = serve::fnv1a64(campaign_spec);
  m.total_jobs = total_jobs;
  m.base_seed = base_seed;
  m.cycle_budget = cycle_budget;
  m.shard = shard;
  return m;
}

Json manifest_to_json(const ShardManifest& m) {
  return Json::object()
      .set("schema", kShardSchema)
      .set("campaign", m.campaign)
      .set("campaign_hash", m.campaign_hash)
      .set("total_jobs", static_cast<std::uint64_t>(m.total_jobs))
      .set("base_seed", m.base_seed)
      .set("cycle_budget", m.cycle_budget)
      .set("shard",
           Json::object()
               .set("index", static_cast<std::uint64_t>(m.shard.index))
               .set("count", static_cast<std::uint64_t>(m.shard.count))
               .set("lo", static_cast<std::uint64_t>(m.shard.lo))
               .set("hi", static_cast<std::uint64_t>(m.shard.hi)));
}

ShardManifest manifest_from_json(const Json& doc) {
  LIPLIB_EXPECT(doc.is_object(), "shard manifest must be a JSON object");
  LIPLIB_EXPECT(string_of(doc, "schema") == kShardSchema,
                std::string("shard manifest: expected schema \"") +
                    kShardSchema + "\"");
  ShardManifest m;
  m.campaign = string_of(doc, "campaign");
  m.campaign_hash = uint_of(doc, "campaign_hash");
  LIPLIB_EXPECT(m.campaign_hash == serve::fnv1a64(m.campaign),
                "shard manifest: campaign_hash does not match the "
                "campaign spec string");
  m.total_jobs = static_cast<std::size_t>(uint_of(doc, "total_jobs"));
  m.base_seed = uint_of(doc, "base_seed");
  m.cycle_budget = uint_of(doc, "cycle_budget");
  const Json* shard = doc.find("shard");
  LIPLIB_EXPECT(shard && shard->is_object(),
                "shard manifest: field 'shard' must be an object");
  m.shard.index = static_cast<std::size_t>(uint_of(*shard, "index"));
  m.shard.count = static_cast<std::size_t>(uint_of(*shard, "count"));
  m.shard.lo = static_cast<std::size_t>(uint_of(*shard, "lo"));
  m.shard.hi = static_cast<std::size_t>(uint_of(*shard, "hi"));
  const ShardRange expect =
      shard_range(m.total_jobs, m.shard.index, m.shard.count);
  LIPLIB_EXPECT(m.shard.lo == expect.lo && m.shard.hi == expect.hi,
                "shard manifest: range [" + std::to_string(m.shard.lo) +
                    ", " + std::to_string(m.shard.hi) +
                    ") is not the planned slice of shard " +
                    std::to_string(m.shard.index) + "/" +
                    std::to_string(m.shard.count));
  return m;
}

Json partial_to_json(const ShardManifest& m,
                     const campaign::Aggregate& agg) {
  return Json::object()
      .set("schema", kPartialSchema)
      .set("manifest", manifest_to_json(m))
      .set("aggregate", campaign::to_json(agg));
}

Partial partial_from_json(const Json& doc) {
  LIPLIB_EXPECT(doc.is_object(), "partial must be a JSON object");
  const Json* schema = doc.find("schema");
  LIPLIB_EXPECT(schema && schema->is_string() &&
                    schema->as_string() == kPartialSchema,
                std::string("partial: expected schema \"") +
                    kPartialSchema + "\"");
  const Json* manifest = doc.find("manifest");
  LIPLIB_EXPECT(manifest, "partial: missing 'manifest'");
  const Json* aggregate = doc.find("aggregate");
  LIPLIB_EXPECT(aggregate, "partial: missing 'aggregate'");
  Partial p;
  p.manifest = manifest_from_json(*manifest);
  p.aggregate = campaign::aggregate_from_json(*aggregate);
  LIPLIB_EXPECT(p.aggregate.total ==
                    p.manifest.shard.hi - p.manifest.shard.lo,
                "partial: aggregate covers " +
                    std::to_string(p.aggregate.total) +
                    " job(s) but the manifest's range holds " +
                    std::to_string(p.manifest.shard.hi -
                                   p.manifest.shard.lo));
  return p;
}

campaign::Aggregate merge_partials(std::vector<Partial> parts) {
  LIPLIB_EXPECT(!parts.empty(), "merge: no partials given");
  const ShardManifest& ref = parts.front().manifest;
  for (const Partial& p : parts) {
    const ShardManifest& m = p.manifest;
    LIPLIB_EXPECT(
        m.campaign == ref.campaign && m.campaign_hash == ref.campaign_hash,
        "merge: partials name different campaigns ('" + m.campaign +
            "' vs '" + ref.campaign + "')");
    LIPLIB_EXPECT(m.total_jobs == ref.total_jobs,
                  "merge: partials disagree on total_jobs");
    LIPLIB_EXPECT(m.base_seed == ref.base_seed,
                  "merge: partials disagree on base_seed");
    LIPLIB_EXPECT(m.cycle_budget == ref.cycle_budget,
                  "merge: partials disagree on cycle_budget");
  }
  std::sort(parts.begin(), parts.end(),
            [](const Partial& a, const Partial& b) {
              return a.manifest.shard.lo < b.manifest.shard.lo;
            });
  std::size_t next = 0;
  for (const Partial& p : parts) {
    LIPLIB_EXPECT(p.manifest.shard.lo == next,
                  p.manifest.shard.lo > next
                      ? "merge: gap in shard coverage at job " +
                            std::to_string(next)
                      : "merge: overlapping shards at job " +
                            std::to_string(p.manifest.shard.lo) +
                            " (duplicate partial?)");
    next = p.manifest.shard.hi;
  }
  LIPLIB_EXPECT(next == ref.total_jobs,
                "merge: shards cover only " + std::to_string(next) +
                    " of " + std::to_string(ref.total_jobs) + " job(s)");
  campaign::Aggregate merged;
  for (const Partial& p : parts) {
    merged = campaign::merge(merged, p.aggregate);
  }
  return merged;
}

Partial run_shard(const std::vector<campaign::Job>& jobs,
                  const ShardManifest& manifest,
                  campaign::EngineOptions eopts, campaign::RunStats* stats) {
  LIPLIB_EXPECT(jobs.size() == manifest.total_jobs,
                "shard manifest: campaign '" + manifest.campaign +
                    "' builds " + std::to_string(jobs.size()) +
                    " job(s), manifest says " +
                    std::to_string(manifest.total_jobs));
  const std::vector<campaign::Job> slice(
      jobs.begin() + static_cast<std::ptrdiff_t>(manifest.shard.lo),
      jobs.begin() + static_cast<std::ptrdiff_t>(manifest.shard.hi));
  eopts.base_seed = manifest.base_seed;
  eopts.cycle_budget = manifest.cycle_budget;
  eopts.index_base = manifest.shard.lo;
  return {manifest,
          campaign::aggregate(campaign::Engine(eopts).run(slice, stats))};
}

std::string named_campaign_to_string(
    const campaign::NamedCampaignSpec& spec) {
  std::string s = "mode=" + spec.mode;
  s += ";jobs=" + std::to_string(spec.jobs);
  s += ";policy=" + std::string(lip::policy_name(spec.policy));
  s += ";shape=" + std::string(campaign::shape_name(spec.shape));
  return s;
}

campaign::NamedCampaignSpec named_campaign_from_string(
    const std::string& text) {
  campaign::NamedCampaignSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto semi = std::min(text.find(';', pos), text.size());
    const std::string field = text.substr(pos, semi - pos);
    const auto eq = field.find('=');
    LIPLIB_EXPECT(eq != std::string::npos,
                  "campaign spec: malformed field '" + field + "' in '" +
                      text + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "mode") {
      spec.mode = value;
    } else if (key == "jobs") {
      std::uint64_t v = 0;
      LIPLIB_EXPECT(parse_digits(value, &v),
                    "campaign spec: bad job count '" + value + "'");
      spec.jobs = static_cast<std::size_t>(v);
    } else if (key == "policy") {
      LIPLIB_EXPECT(lip::parse_policy(value, &spec.policy),
                    "campaign spec: unknown policy '" + value + "'");
    } else if (key == "shape") {
      LIPLIB_EXPECT(campaign::parse_shape(value, &spec.shape),
                    "campaign spec: unknown shape '" + value + "'");
    } else {
      throw ApiError("campaign spec: unknown field '" + key + "'");
    }
    pos = semi + 1;
  }
  // One spelling per campaign: the string is hashed into the campaign
  // identity, so a reordered, repeated, zero-padded or incomplete
  // spelling of the same jobs is rejected instead of hashing apart.
  const std::string canonical = named_campaign_to_string(spec);
  LIPLIB_EXPECT(text == canonical, "campaign spec: '" + text +
                                       "' is not the canonical '" +
                                       canonical + "'");
  return spec;
}

}  // namespace liplib::dist
