// Topology detection and partition resolution for the thread-team subsystem
// (common/threading.h).  Detection follows the mctop approach in spirit —
// derive the socket/core/SMT shape of the machine and keep teams inside one
// socket — but reads the kernel's own description (sysfs) instead of
// measuring cache latencies.
#include "common/threading.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#if defined(__unix__)
#include <unistd.h>
#endif

namespace mqc {
namespace {

/// One-line warning for a malformed env knob; the caller then falls back to
/// the automatic behaviour, never to a half-parsed shape.
void warn_env_knob(const char* name, const char* text, const char* expected)
{
  std::fprintf(stderr, "mqc: warning: ignoring malformed %s=\"%s\" (expected %s); using auto\n",
               name, text, expected);
}

bool read_int_file(const std::string& path, int& out)
{
  std::ifstream in(path);
  int v = 0;
  if (!(in >> v))
    return false;
  out = v;
  return true;
}

/// Read the socket/core shape from Linux sysfs.  Counts distinct
/// physical_package_id values and distinct (package, core) pairs over the
/// online cpus; smt is logical / physical cores (rounded down, >= 1).
/// Offline cpus have no topology/ directory, so the scan runs over the
/// full configured cpu index range and skips holes instead of stopping at
/// the first one (a break would truncate the shape on any machine with an
/// offlined core and silently disable the nested layer).
bool query_sysfs_topology(MachineTopology& topo)
{
  long configured = 0;
#if defined(_SC_NPROCESSORS_CONF)
  configured = ::sysconf(_SC_NPROCESSORS_CONF);
#endif
  const int scan = configured > 0 ? static_cast<int>(configured) : 4096;
  std::set<int> packages;
  std::set<std::pair<int, int>> cores;
  int logical = 0;
  for (int cpu = 0; cpu < scan; ++cpu) {
    const std::string base = "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    int pkg = 0, core = 0;
    if (!read_int_file(base + "physical_package_id", pkg) ||
        !read_int_file(base + "core_id", core))
      continue;
    packages.insert(pkg);
    cores.insert({pkg, core});
    ++logical;
  }
  if (logical == 0 || packages.empty() || cores.empty())
    return false;
  topo.logical_cpus = logical;
  topo.sockets = static_cast<int>(packages.size());
  const int physical = static_cast<int>(cores.size());
  topo.cores_per_socket = std::max(1, physical / topo.sockets);
  topo.smt = std::max(1, logical / physical);
  topo.detected = true;
  return true;
}

} // namespace

EnvKnob parse_env_knob(const char* text, int min_count, int max_count)
{
  EnvKnob k;
  if (text == nullptr)
    return k;
  k.present = true;
  const char* p = text;
  while (*p == ' ' || *p == '\t')
    ++p;
  int count = 0;
  for (;;) {
    if (!std::isdigit(static_cast<unsigned char>(*p)))
      return k; // empty field, separator run, or non-numeric garbage
    long v = 0;
    while (std::isdigit(static_cast<unsigned char>(*p))) {
      v = v * 10 + (*p - '0');
      if (v > 1'000'000)
        return k; // absurd thread/socket counts are typos, not requests
      ++p;
    }
    if (v <= 0 || count >= 3)
      return k;
    k.values[count++] = static_cast<int>(v);
    if (*p == 'x' || *p == 'X' || *p == ':' || *p == ',') {
      ++p;
      continue;
    }
    while (*p == ' ' || *p == '\t')
      ++p;
    if (*p != '\0')
      return k; // trailing garbage after the last field
    break;
  }
  if (count < min_count || count > max_count)
    return k;
  k.count = count;
  k.valid = true;
  return k;
}

MachineTopology query_machine_topology()
{
  MachineTopology topo;
  // 1. forced shape: MQC_TOPOLOGY=SxCxT (smt optional).
  const char* topo_env = std::getenv("MQC_TOPOLOGY");
  const EnvKnob forced = parse_env_knob(topo_env, 2, 3);
  if (forced.valid) {
    topo.sockets = forced.values[0];
    topo.cores_per_socket = forced.values[1];
    topo.smt = forced.count >= 3 ? forced.values[2] : 1;
    topo.logical_cpus = topo.sockets * topo.cores_per_socket * topo.smt;
    topo.detected = true;
    return topo;
  }
  if (forced.present)
    warn_env_knob("MQC_TOPOLOGY", topo_env, "SxC or SxCxT, positive integers");
  // 2. the kernel's description.
  if (query_sysfs_topology(topo))
    return topo;
  // 3. flat fallback: everything the OpenMP runtime grants, one socket.
  topo.logical_cpus = std::max(1, max_threads());
  topo.sockets = 1;
  topo.cores_per_socket = topo.logical_cpus;
  topo.smt = 1;
  topo.detected = false;
  return topo;
}

const MachineTopology& machine_topology()
{
  static const MachineTopology topo = query_machine_topology();
  return topo;
}

ThreadPartition ThreadPartition::resolve_for(int outer_work, int requested_inner,
                                             int total_threads, const MachineTopology& topo)
{
  ThreadPartition part;
  part.outer = std::max(1, outer_work);
  if (requested_inner > 0) {
    part.inner = requested_inner;
    return part;
  }
  const int total = total_threads > 0 ? total_threads : std::max(1, topo.logical_cpus);
  int inner = std::max(1, total / part.outer);
  // Topology-aware shrink: the largest divisor of one socket's hardware
  // threads that fits — an inner team then never straddles a socket (and,
  // when it lands below cores_per_socket, shares at most one core's SMT
  // siblings plus same-socket cache).
  const int per_socket = std::max(1, topo.threads_per_socket());
  if (inner > 1 && per_socket > 1) {
    int best = 1;
    for (int d = 1; d <= per_socket; ++d)
      if (per_socket % d == 0 && d <= inner)
        best = std::max(best, d);
    inner = best;
  }
  part.inner = std::max(1, inner);
  return part;
}

int resolve_shard_count_for(int requested, const MachineTopology& topo) noexcept
{
  if (requested > 0)
    return requested;
  return std::max(1, topo.sockets);
}

int resolve_shard_count(int requested)
{
  if (requested <= 0) {
    // Env override, only consulted in auto mode (same precedence contract as
    // the partition knobs): explicit API request > MQC_SHARDS > topology.
    const char* env = std::getenv("MQC_SHARDS");
    const EnvKnob knob = parse_env_knob(env, 1, 1);
    if (knob.valid)
      return knob.values[0];
    if (knob.present)
      warn_env_knob("MQC_SHARDS", env, "one positive integer");
  }
  return resolve_shard_count_for(requested, machine_topology());
}

ThreadPartition ThreadPartition::resolve(int outer_work, int requested_inner, int total_threads)
{
  if (requested_inner <= 0) {
    // Env overrides, only consulted in auto mode: an explicit knob from the
    // caller (config, API) always wins over the environment.  A malformed
    // value warns once here and falls through to the auto partition — it
    // never produces a bogus shape.
    const char* part_env = std::getenv("MQC_PARTITION");
    const EnvKnob part = parse_env_knob(part_env, 2, 2);
    if (part.valid)
      return ThreadPartition{part.values[0], part.values[1]};
    if (part.present)
      warn_env_knob("MQC_PARTITION", part_env, "OxI, two positive integers");
    const char* inner_env = std::getenv("MQC_INNER_THREADS");
    const EnvKnob inner = parse_env_knob(inner_env, 1, 1);
    if (inner.valid)
      return resolve_for(outer_work, inner.values[0], total_threads, machine_topology());
    if (inner.present)
      warn_env_knob("MQC_INNER_THREADS", inner_env, "one positive integer");
  }
  return resolve_for(outer_work, requested_inner, total_threads, machine_topology());
}

} // namespace mqc
