#include "core/tuner.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/config.h"

namespace mqc {

std::string Wisdom::make_key(const std::string& kernel, const std::string& precision,
                             int num_splines, int nx, int ny, int nz)
{
  std::ostringstream os;
  os << kernel << ':' << precision << ":N=" << num_splines << ":grid=" << nx << 'x' << ny << 'x'
     << nz;
  return os.str();
}

std::string Wisdom::make_key_v2(const std::string& kernel, const std::string& precision,
                                int num_splines, int nx, int ny, int nz, int num_walkers)
{
  std::ostringstream os;
  os << "v2:" << make_key(kernel, precision, num_splines, nx, ny, nz) << ":nw=" << num_walkers;
  return os.str();
}

std::optional<Wisdom::Entry> Wisdom::lookup(const std::string& key) const
{
  const auto it = entries_.find(key);
  if (it == entries_.end())
    return std::nullopt;
  return it->second;
}

bool Wisdom::save(const std::string& path) const
{
  std::ofstream out(path);
  if (!out)
    return false;
  out << "# miniqmcpp wisdom v5: key tile_size pos_block crowd_size inner_threads precision "
         "throughput\n";
  for (const auto& [key, entry] : entries_)
    out << key << ' ' << entry.tile_size << ' ' << entry.pos_block << ' ' << entry.crowd_size
        << ' ' << entry.inner_threads << ' ' << entry.precision << ' ' << entry.throughput
        << '\n';
  return static_cast<bool>(out);
}

namespace {

/// A persisted integer knob: non-negative, integral, and sane in magnitude.
bool integral_knob(double v) noexcept
{
  return std::isfinite(v) && v >= 0.0 && v == std::floor(v) && v <= 1e9;
}

} // namespace

bool Wisdom::load(const std::string& path)
{
  load_status_ = LoadStatus{};
  load_status_.attempted = true;
  std::ifstream in(path);
  if (!in) {
    load_status_.detail = path + ": cannot open";
    return false;
  }
  // All-or-nothing: parse into a staging map first.  A file with ANY
  // malformed line is rejected whole — merging the "good" lines of a
  // corrupt file would silently serve half the tuned knobs.
  std::map<std::string, Entry> staged;
  std::string line;
  int lineno = 0;
  auto reject = [&](const std::string& why) {
    ++load_status_.lines_rejected;
    if (load_status_.detail.empty())
      load_status_.detail = path + ":" + std::to_string(lineno) + ": " + why;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#')
      continue;
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) {
      reject("unparseable line");
      continue;
    }
    // v5 is the only line format: six numbers after the key, parsed whole
    // (strtod, so nan/inf reach the validators below instead of stopping
    // the parse).  The v1-v4 shapes — two to five numbers — are refused by
    // their field count.
    double num[6] = {};
    int n = 0;
    std::string tok, bad;
    while (bad.empty() && (ls >> tok)) {
      char* end = nullptr;
      const double v = std::strtod(tok.c_str(), &end);
      if (n == 6 || end != tok.c_str() + tok.size())
        bad = tok;
      else
        num[n++] = v;
    }
    if (!bad.empty()) {
      reject("unexpected field '" + bad + "'");
      continue;
    }
    if (n != 6) {
      reject(n < 2 ? std::string("too few fields (a v5 line is key + 6 numeric fields)")
                   : std::to_string(n) + " numeric fields is the pre-v5 (v" +
                         std::to_string(n - 1) + ") layout; only v5 lines (6) load");
      continue;
    }
    // precision is an enum ordinal, not a free knob: only 0 (native) and
    // 1 (mixed) exist.
    const bool knobs_ok = integral_knob(num[0]) && integral_knob(num[1]) &&
                          integral_knob(num[2]) && integral_knob(num[3]) &&
                          integral_knob(num[4]) && num[4] <= 1.0;
    if (!knobs_ok) {
      reject("knob fields must be non-negative integers");
      continue;
    }
    Entry entry;
    entry.tile_size = static_cast<int>(num[0]);
    entry.pos_block = static_cast<int>(num[1]);
    entry.crowd_size = static_cast<int>(num[2]);
    entry.inner_threads = static_cast<int>(num[3]);
    entry.precision = static_cast<int>(num[4]);
    const double throughput = num[5];
    if (!std::isfinite(throughput) || throughput < 0.0) {
      reject("throughput must be finite and non-negative");
      continue;
    }
    entry.throughput = throughput;
    staged[key] = entry;
  }
  if (load_status_.lines_rejected > 0)
    return false;
  for (auto& [key, entry] : staged)
    entries_[key] = entry;
  load_status_.ok = true;
  load_status_.entries_loaded = static_cast<int>(staged.size());
  return true;
}

std::vector<int> default_tile_candidates(int num_splines, int min_tile)
{
  std::vector<int> out;
  for (int nb = min_tile; nb < num_splines; nb *= 2)
    out.push_back(nb);
  out.push_back(num_splines); // untiled upper end of the sweep
  return out;
}

std::vector<int> default_block_candidates(int num_walkers)
{
  std::vector<int> out;
  for (int pb = 1; pb < num_walkers; pb *= 2)
    out.push_back(pb);
  if (num_walkers >= 1)
    out.push_back(num_walkers); // whole-population block
  return out;
}

} // namespace mqc
