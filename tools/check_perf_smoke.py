#!/usr/bin/env python3
"""Perf smoke over bench_dynamic's summary record.

Reads BENCH_dynamic.json and enforces the lease-economy guarantees:

  * `access_over_distinct` — priced page accesses per distinct page
    touched. Deterministic (pure counters), so the bound is tight: the
    lease layer must keep a batch's accesses within 2x of the distinct
    pages it crawls. A regression here means pages are being re-priced
    per read again (the pin tax is back).
  * `paged_over_in_memory_warm` — warm-pool paged wall clock over
    in-memory wall clock. Wall-clock on a shared CI runner is noisy, so
    the bound is deliberately loose; it exists to catch the paged path
    falling off a cliff (an accidental per-read pin round trip shows up
    as >3x immediately), not to police single-digit percentages.

When also given BENCH_server.json, additionally enforces:

  * `tracing_overhead` — warm paged loopback wall clock with the
    flight-recorder ring on over the same run with it off (best-of-3
    interleaved single-client runs, from bench_server's server_summary
    record). Tracing is
    one 136-byte record append per request behind a predictable branch;
    it must stay within 5% of free or it is not a flight recorder any
    more.
  * probed vertices per query — on every config record, the surface
    candidates the engine distance-tested per query, against the
    surface size a linear-scan probe tests. Deterministic (pure
    counters): the batch-shared grid probe tests ~1/30 of the surface
    per query at bench scales 0.2 to 1, so more than 1/8 means it
    degraded towards the full scan.
  * paged access over distinct — on every paged config record, priced
    page accesses (hits + misses) per distinct page a batch touched.
    Deterministic (pure counters; with every client connected before
    the clock starts, quorum dispatch makes each batch one request from
    every client). The executor runs a batch in Hilbert order of its
    boxes, so consecutive queries find their pages still leased; in
    arrival order the same batches re-price pages their predecessors
    dropped (measured 1.52 Hilbert vs 4.01 arrival at bench scale 1,
    1.16 vs 3.54 at 0.5, 1.00 vs 1.02 at 0.2).
  * quorum dispatch — in `loopback_1client`, every batch must have been
    dispatched on a complete quorum (`batches_quorum ==
    batches_executed`): a lone client is its own quorum, so none of its
    requests may wait out the coalescing window. Deterministic (pure
    counters).

Usage: check_perf_smoke.py [BENCH_dynamic.json] [BENCH_server.json]
"""

import json
import sys

MAX_ACCESS_OVER_DISTINCT = 2.0
MAX_PAGED_OVER_IN_MEMORY = 3.0
MAX_TRACING_OVERHEAD = 1.05
MAX_PROBED_SHARE_OF_SURFACE = 1.0 / 8
MAX_PAGED_ACCESS_OVER_DISTINCT = 1.6


def check_probe(records: list, path: str, failures: list) -> None:
    configs = [r for r in records if "probed_vertices" in r]
    if not configs:
        failures.append(f"no config record in {path} has probed_vertices")
        return
    worst = 0.0
    for r in configs:
        queries = r.get("queries_executed", 0)
        surface = r.get("surface_vertices", 0)
        if queries <= 0 or surface <= 0:
            failures.append(f"{r.get('name')}: no queries or no surface")
            continue
        share = r["probed_vertices"] / queries / surface
        worst = max(worst, share)
        if share > MAX_PROBED_SHARE_OF_SURFACE:
            failures.append(
                f"{r.get('name')}: {r['probed_vertices'] / queries:.0f} "
                f"probed vertices per query of {surface} surface vertices "
                f"(bound 1/{1 / MAX_PROBED_SHARE_OF_SURFACE:.0f}): the "
                f"probe is scanning the surface again")
    print(f"  probed share of surface   = {worst:.3f} worst of "
          f"{len(configs)} configs (bound {MAX_PROBED_SHARE_OF_SURFACE:.3f})")


def check_paged_access(records: list, path: str, failures: list) -> None:
    paged = [r for r in records if r.get("paged") == 1]
    if not paged:
        failures.append(f"no paged config record in {path}")
        return
    worst = 0.0
    for r in paged:
        distinct = r.get("pages_distinct", 0)
        if distinct <= 0:
            failures.append(f"{r.get('name')}: no distinct pages touched")
            continue
        ratio = (r.get("page_hits", 0) + r.get("page_misses", 0)) / distinct
        worst = max(worst, ratio)
        if ratio > MAX_PAGED_ACCESS_OVER_DISTINCT:
            failures.append(
                f"{r.get('name')}: {ratio:.3f} priced page accesses per "
                f"distinct page (bound {MAX_PAGED_ACCESS_OVER_DISTINCT}): "
                f"consecutive queries of a batch no longer share pages")
    print(f"  paged access over distinct = {worst:.3f} worst of "
          f"{len(paged)} configs (bound {MAX_PAGED_ACCESS_OVER_DISTINCT})")


def check_quorum(records: list, path: str, failures: list) -> None:
    lone = [r for r in records if r.get("name") == "loopback_1client"]
    if len(lone) != 1:
        failures.append(f"expected one loopback_1client record in {path}, "
                        f"found {len(lone)}")
        return
    quorum = lone[0].get("batches_quorum")
    executed = lone[0].get("batches_executed")
    print(f"  loopback_1client quorum   = {quorum} of {executed} batches "
          f"(must be all)")
    if quorum is None or not executed or quorum != executed:
        failures.append(
            f"loopback_1client: {quorum} of {executed} batches dispatched "
            f"on a complete quorum: a lone client waited for the window")


def check_server(path: str, failures: list) -> None:
    with open(path) as f:
        records = json.load(f)
    check_probe(records, path, failures)
    check_paged_access(records, path, failures)
    check_quorum(records, path, failures)
    summaries = [r for r in records if r.get("name") == "server_summary"]
    if len(summaries) != 1:
        failures.append(f"expected one server_summary record in {path}, "
                        f"found {len(summaries)}")
        return
    overhead = summaries[0].get("tracing_overhead")
    print(f"  tracing_overhead          = "
          f"{overhead if overhead is None else format(overhead, '.3f')} "
          f"(bound {MAX_TRACING_OVERHEAD})")
    if overhead is None or overhead > MAX_TRACING_OVERHEAD:
        failures.append(
            f"tracing_overhead = {overhead} (bound {MAX_TRACING_OVERHEAD}):"
            f" the flight-recorder ring is no longer effectively free")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_dynamic.json"
    server_path = sys.argv[2] if len(sys.argv) > 2 else None
    with open(path) as f:
        records = json.load(f)
    summaries = [r for r in records if r.get("name") == "dynamic_summary"]
    if len(summaries) != 1:
        print(f"FAIL: expected one dynamic_summary record in {path}, "
              f"found {len(summaries)}")
        return 1
    s = summaries[0]

    failures = []
    access = s.get("access_over_distinct")
    if access is None or access > MAX_ACCESS_OVER_DISTINCT:
        failures.append(
            f"access_over_distinct = {access} "
            f"(bound {MAX_ACCESS_OVER_DISTINCT}): page accesses are no "
            f"longer tracking distinct pages touched")
    slowdown = s.get("paged_over_in_memory_warm")
    if slowdown is None or slowdown > MAX_PAGED_OVER_IN_MEMORY:
        failures.append(
            f"paged_over_in_memory_warm = {slowdown} "
            f"(bound {MAX_PAGED_OVER_IN_MEMORY}): warm-pool paged "
            f"execution fell off a cliff vs in-memory")

    def fmt(v):
        return f"{v:.3f}" if isinstance(v, (int, float)) else str(v)

    print(f"perf smoke ({path}):")
    print(f"  access_over_distinct      = {fmt(access)} "
          f"(bound {MAX_ACCESS_OVER_DISTINCT})")
    print(f"  paged_over_in_memory_warm = {fmt(slowdown)} "
          f"(bound {MAX_PAGED_OVER_IN_MEMORY})")
    if server_path is not None:
        check_server(server_path, failures)
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
