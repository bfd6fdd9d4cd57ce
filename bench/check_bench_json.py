#!/usr/bin/env python3
"""Gates a bench's JSON output against its committed baseline.

Usage: bench/check_bench_json.py <committed BENCH_<name>.json> <current json>

The simulation is deterministic, so apart from "host" members (wall time and peak RSS,
which depend on the machine) the current output must equal the committed file exactly.
BENCH_simspeed.json is the one file whose rows mix wall-clock fields into deterministic
ones; it is compared through its projection onto the soak fingerprint (events, requests,
sim_now_ns and sim_steps per soak). On a difference the script prints the first differing
JSON path and fails. It then re-asserts the claims of the bench named by the committed
file, so a stale baseline cannot hide a claim regression. Improvements land by re-running
the bench from a Release build and committing the new baseline.
"""

import json
import os
import sys


def drop_host(doc):
    """`doc` without any "host" member, at any depth."""
    if isinstance(doc, dict):
        return {k: drop_host(v) for k, v in doc.items() if k != "host"}
    if isinstance(doc, list):
        return [drop_host(v) for v in doc]
    return doc


def soak_fingerprint(doc):
    """Per simspeed soak, the fields that no engine change may move."""
    keys = ("events", "requests", "sim_now_ns", "sim_steps")
    return {s["name"]: {k: s[k] for k in keys} for s in doc["soaks"]}


# The part of each file that is gated; files not listed are gated whole, "host" aside.
PROJECTIONS = {
    "BENCH_simspeed.json": soak_fingerprint,
}


def first_difference(want, got, path="$"):
    """(path, committed value, current value) of the first difference, or None if equal."""
    if type(want) is not type(got):
        return path, want, got
    if isinstance(want, dict):
        for key in sorted(set(want) | set(got)):
            diff = first_difference(want.get(key), got.get(key), f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(want, list):
        for i in range(max(len(want), len(got))):
            w = want[i] if i < len(want) else None
            g = got[i] if i < len(got) else None
            diff = first_difference(w, g, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    return None if want == got else (path, want, got)


def claims_scaleout(doc):
    gc = doc["giant"]
    print(f"giant @ {gc['nodes']} nodes: "
          f"fractos p99 {gc['fractos']['p99_us']:.1f} us vs "
          f"baseline p99 {gc['baseline']['p99_us']:.1f} us")


def claims_capability(doc):
    got = doc["production_scale"]
    assert got["live_caps"] >= 1_000_000, got["live_caps"]
    base, hot = got["baseline"], got["hotpath"]
    for metric in ("invoke_p99_us", "revoke_p99_us"):
        print(f"{metric}: hotpath {hot[metric]:.3f} us vs baseline {base[metric]:.3f} us")
        assert hot[metric] < base[metric], f"hot path no longer beats baseline on {metric}"


def claims_openloop(doc):
    for pt in doc["points"]:
        f, b = pt["fractos"]["agg_p99_us"], pt["baseline"]["agg_p99_us"]
        print(f"load {pt['load']:.2f}: agg p99 fractos {f:10.1f} us  baseline {b:10.1f} us")
        assert f < b
    oc = doc["overload_control"]
    shed = oc["admitted"]["tenants"][1]["shed"]
    print(f"overload control: {shed} shed, admitted storage p99 "
          f"{oc['admitted']['tenants'][1]['p99_us']:.1f} us "
          f"(ungated {oc['ungated']['tenants'][1]['p99_us']:.1f} us)")


def claims_memtier(doc):
    phases = {m["name"]: {p["name"]: p for p in m["phases"]} for m in doc["modes"]}
    dual, page = phases["dual"]["zipfian"], phases["page_only"]["zipfian"]
    print(f"zipfian p99: dual {dual['p99_ns']} ns vs page-only {page['p99_ns']} ns")
    print(f"zipfian fabric bytes: dual {dual['fabric_bytes']} "
          f"vs page-only {page['fabric_bytes']}")
    assert dual["p99_ns"] < page["p99_ns"], "dual lost the zipfian p99 claim"
    assert dual["fabric_bytes"] < page["fabric_bytes"], (
        "dual moved more fabric bytes than the page-only baseline")
    assert phases["dual"]["sequential"]["prefetches"] > 0, "sequential scan armed no prefetches"
    xlate = {s["placement"]: s["translation_ns"] for s in doc["placement_sweep"]}
    print(f"translation ns: {xlate}")
    assert xlate["tor"] < xlate["owner-cpu"] < xlate["snic"], (
        "translation placement ordering broke")


def claims_simspeed(doc):
    for name, fields in doc.items():
        print(f"soak {name}: {fields}")


CLAIMS = {
    "BENCH_scaleout.json": claims_scaleout,
    "BENCH_capability.json": claims_capability,
    "BENCH_openloop.json": claims_openloop,
    "BENCH_memtier.json": claims_memtier,
    "BENCH_simspeed.json": claims_simspeed,
}


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    committed_path, current_path = argv[1:]
    with open(committed_path) as f:
        committed = json.load(f)
    with open(current_path) as f:
        current = json.load(f)
    print(f"host: {current.get('host')} (not gated)")
    project = PROJECTIONS.get(os.path.basename(committed_path), drop_host)
    want, got = project(committed), project(current)
    diff = first_difference(want, got)
    if diff is not None:
        path, was, now = diff
        sys.exit(f"{current_path} moved vs committed {committed_path} at {path}:\n"
                 f"  committed: {json.dumps(was, sort_keys=True)[:2000]}\n"
                 f"  current:   {json.dumps(now, sort_keys=True)[:2000]}\n"
                 "(re-run the bench from a Release build and commit the new baseline "
                 "if intentional)")
    print(f"{current_path}: matches {committed_path} exactly")
    claims = CLAIMS.get(os.path.basename(committed_path))
    if claims is None:
        sys.exit(f"no claims known for {committed_path}")
    claims(got)


if __name__ == "__main__":
    main(sys.argv)
