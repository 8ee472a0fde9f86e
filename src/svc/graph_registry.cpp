#include "svc/graph_registry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "check/csr.hpp"
#include "graph/gen/suite.hpp"
#include "graph/io/io.hpp"
#include "graph/reorder.hpp"
#include "store/mapped_graph.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {

namespace {

constexpr const char* kGenPrefix = "gen:";

bool is_gen_spec(const std::string& spec) {
  return spec.rfind(kGenPrefix, 0) == 0;
}

struct GenSpec {
  std::string name;
  double scale = 1.0;
  std::uint64_t seed = 1;
  /// Deterministic relabeling applied after generation (kRandom uses
  /// `seed`). Part of the spec, and so of the canonical cache key: two
  /// specs that differ only in order are two entries.
  Order order = Order::kNatural;
};

/// Parses "gen:<name>[?scale=S][&seed=N][&order=O]" (params in any
/// order).
GenSpec parse_gen_spec(const std::string& spec) {
  GenSpec out;
  std::string rest = spec.substr(std::string(kGenPrefix).size());
  const auto q = rest.find('?');
  out.name = rest.substr(0, q);
  if (out.name.empty()) {
    throw std::invalid_argument("registry: empty generator name in \"" +
                                spec + "\"");
  }
  if (q == std::string::npos) return out;
  std::string params = rest.substr(q + 1);
  std::size_t pos = 0;
  while (pos < params.size()) {
    auto amp = params.find('&', pos);
    if (amp == std::string::npos) amp = params.size();
    const std::string kv = params.substr(pos, amp - pos);
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
      throw std::invalid_argument("registry: malformed parameter \"" + kv +
                                  "\" in \"" + spec + "\"");
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    const char* b = val.data();
    const char* e = b + val.size();
    if (key == "scale") {
      auto [p, ec] = std::from_chars(b, e, out.scale);
      if (ec != std::errc() || p != e || out.scale <= 0.0) {
        throw std::invalid_argument("registry: bad scale \"" + val + "\"");
      }
      // Overflow-harden here, at spec-parse time: a scale whose vertex or
      // arc count would wrap vid_t/eid_t (or "inf"/"nan", which
      // from_chars happily parses) must come back as a stable
      // bad_request from submit, not truncate a generated graph — or
      // trip a contract abort inside the registry's load path later.
      validate_suite_scale(out.scale);
    } else if (key == "seed") {
      auto [p, ec] = std::from_chars(b, e, out.seed);
      if (ec != std::errc() || p != e) {
        throw std::invalid_argument("registry: bad seed \"" + val + "\"");
      }
    } else if (key == "order") {
      try {
        out.order = order_from_name(val);
      } catch (const std::exception&) {
        throw std::invalid_argument("registry: bad order \"" + val +
                                    "\" in \"" + spec + "\"");
      }
    } else {
      throw std::invalid_argument("registry: unknown parameter \"" + key +
                                  "\" in \"" + spec +
                                  "\" (supported: scale, seed, order)");
    }
    pos = amp + 1;
  }
  return out;
}

std::string format_scale(double scale) {
  // Shortest round-trip representation keeps keys canonical: 0.50 == 0.5.
  char buf[32];
  const auto [p, ec] =
      std::to_chars(buf, buf + sizeof buf, scale,
                    std::chars_format::general);
  return std::string(buf, p);
}

std::size_t graph_bytes(const Csr& g) {
  return g.heap_bytes() + sizeof(Csr);
}

/// Case-insensitive ".gbin" suffix check on a canonical key.
bool has_gbin_extension(const std::string& key) {
  const auto dot = key.rfind('.');
  if (dot == std::string::npos) return false;
  std::string ext = key.substr(dot + 1);
  std::transform(ext.begin(), ext.end(), ext.begin(), [](unsigned char c) {
    // lossy: tolower of an ASCII byte round-trips through int
    return narrow_cast<char>(std::tolower(c));
  });
  return ext == "gbin";
}

}  // namespace

GraphRegistry::GraphRegistry() : GraphRegistry(Options{}) {}

GraphRegistry::GraphRegistry(Options opts) : opts_(opts) {
  if (opts_.max_entries == 0) {
    throw std::invalid_argument("registry: max_entries must be >= 1");
  }
}

std::string GraphRegistry::canonical_key(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("registry: empty graph spec");
  }
  if (is_gen_spec(spec)) {
    const GenSpec g = parse_gen_spec(spec);
    std::string key = std::string(kGenPrefix) + g.name + "?scale=" +
                      format_scale(g.scale) + "&seed=" + std::to_string(g.seed);
    // kNatural is omitted so pre-order specs keep their exact old keys.
    if (g.order != Order::kNatural) {
      key += std::string("&order=") + order_name(g.order);
    }
    return key;
  }
  // Absolutize first: weakly_canonical leaves a relative path untouched
  // when no prefix of it exists, which would make "x.mtx" and "./x.mtx"
  // distinct keys.
  std::error_code ec;
  std::filesystem::path abs = std::filesystem::absolute(spec, ec);
  if (ec) abs = spec;
  std::filesystem::path canon = std::filesystem::weakly_canonical(abs, ec);
  if (ec) canon = abs.lexically_normal();
  return canon.string();
}

std::shared_ptr<const Csr> GraphRegistry::acquire(const std::string& spec,
                                                  bool* cache_hit) {
  const std::string key = canonical_key(spec);

  std::shared_future<std::shared_ptr<const Csr>> fut;
  std::promise<std::shared_ptr<const Csr>> promise;
  bool loader = false;
  {
    sync::LockGuard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;  // resident or in-flight: either way the load is shared
      touch(it->second);
      fut = it->second.future;
    } else {
      ++stats_.misses;
      loader = true;
      Entry e;
      e.future = promise.get_future().share();
      lru_.push_front(key);
      e.lru_it = lru_.begin();
      fut = e.future;
      entries_.emplace(key, std::move(e));
    }
  }

  if (cache_hit) *cache_hit = !loader;
  if (!loader) return fut.get();  // may rethrow the loader's exception

  // Load outside the lock so a slow parse/generate never stalls hits on
  // other graphs.
  std::shared_ptr<const Csr> graph;
  std::size_t charge = 0;
  bool mapped = false;
  try {
    if (is_gen_spec(key)) {
      const GenSpec g = parse_gen_spec(key);
      SuiteOptions sopts;
      sopts.scale = g.scale;
      sopts.seed = g.seed;
      Csr generated = make_suite_graph(g.name, sopts).graph;
      if (g.order != Order::kNatural) {
        generated = reorder(generated, g.order, g.seed);
      }
      graph = std::make_shared<const Csr>(std::move(generated));
    } else if (has_gbin_extension(key)) {
      // Zero-copy path: the cached shared_ptr aliases the MappedGraph's
      // view, so this entry (and every job holding it) pins the mapping,
      // never a heap copy. Input the kernel cannot map (a FIFO) comes
      // back as a heap graph and is charged as one.
      auto mg = store::MappedGraph::open(key);
      mapped = mg->is_mapped();
      charge = mg->file_bytes();
      graph = store::graph_view(std::move(mg));
    } else {
      graph = std::make_shared<const Csr>(load_graph(key));
    }
    // Charge the newcomer and make room before validation reads it: a
    // mapping costs no memory until its pages are touched, and validation
    // touches all of them, so evicting only afterwards would keep a full
    // cache resident alongside the newcomer.
    {
      sync::LockGuard lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.bytes = mapped ? charge : graph_bytes(*graph);
        it->second.mapped = mapped;
        evict_to_capacity();
      }
    }
    // Once per load, not per job: a malformed graph would make every
    // later "valid coloring" claim about it meaningless.
    if (const auto issue = check::validate_csr(*graph)) {
      throw std::runtime_error("invalid_graph: " + issue->to_string());
    }
  } catch (...) {
    {
      sync::LockGuard lock(mu_);
      ++stats_.load_errors;
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.erase(it->second.lru_it);
        entries_.erase(it);  // failed loads are not cached
      }
    }
    promise.set_exception(std::current_exception());
    fut.get();  // rethrow for this caller
    throw;      // unreachable; keeps control flow obvious
  }

  {
    sync::LockGuard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) it->second.ready = true;
  }
  promise.set_value(graph);
  return graph;
}

void GraphRegistry::touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

void GraphRegistry::evict_to_capacity() {
  if (lru_.size() < 2) return;  // never evict the only (just-loaded) entry
  std::size_t heap_bytes = 0;
  std::size_t mapped_bytes = 0;
  for (const auto& [k, e] : entries_) {
    (e.mapped ? mapped_bytes : heap_bytes) += e.bytes;
  }
  // Walk from the cold end toward (but never onto) the MRU entry,
  // skipping in-flight loads — they have waiters — and entries whose
  // eviction would not relieve any exceeded bound (evicting a mapped
  // entry cannot fix a heap overage, and vice versa).
  auto it = std::prev(lru_.end());
  while ((entries_.size() > opts_.max_entries ||
          heap_bytes > opts_.max_bytes ||
          mapped_bytes > opts_.max_mapped_bytes) &&
         it != lru_.begin()) {
    const auto cur = it--;
    const auto eit = entries_.find(*cur);
    if (eit == entries_.end() || !eit->second.ready) continue;
    const Entry& e = eit->second;
    const bool helps = entries_.size() > opts_.max_entries ||
                       (e.mapped ? mapped_bytes > opts_.max_mapped_bytes
                                 : heap_bytes > opts_.max_bytes);
    if (!helps) continue;
    (e.mapped ? mapped_bytes : heap_bytes) -= e.bytes;
    entries_.erase(eit);
    lru_.erase(cur);
    ++stats_.evictions;
  }
}

GraphRegistry::Stats GraphRegistry::stats() const {
  sync::LockGuard lock(mu_);
  Stats s = stats_;
  s.entries = 0;
  s.bytes = 0;
  s.mapped_entries = 0;
  s.mapped_bytes = 0;
  for (const auto& [k, e] : entries_) {
    if (!e.ready) continue;
    ++s.entries;
    if (e.mapped) {
      ++s.mapped_entries;
      s.mapped_bytes += e.bytes;
    } else {
      s.bytes += e.bytes;
    }
  }
  return s;
}

void GraphRegistry::clear() {
  sync::LockGuard lock(mu_);
  // Drop only resolved entries; in-flight loads keep their slot so their
  // waiters still resolve.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.ready) {
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gcg::svc
