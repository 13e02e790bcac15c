"""In-process side of the benchmark: load an artefact the way the server
does, draw the seeded query stream from its keys, and answer a sample of
it with a :class:`repro.serve.MapService` so the served bytes can be
compared.

    python3 perfbench/reference.py ARTEFACT OUT.json --scale S --seed N
        --mix {hot,cold,digest} [--bench-seed N]

Runs before anything is timed. ``--mix digest`` only loads the artefact
and reports its digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlencode, urlsplit

import numpy as np

#: Endpoint counts in every block of the cold stream: the weights of
#: ``repro.serve.loadgen.ENDPOINT_MIX`` for the three query endpoints,
#: copied so the workload stays fixed if that mix changes. Each
#: endpoint's keys are drawn without replacement; an exhausted endpoint's
#: slots are skipped, so the others keep their ratio.
COLD_BLOCK = (("cdf", 5), ("anycast", 3), ("outage", 2))
#: The hot key pool is the same on every run: which keys the pool
#: happens to hold would otherwise move the latency mixture from seed
#: to seed. The benchmark seed drives the order the pool is sent in.
HOT_POOL_SEED = 0
HOT_POOL = 100
#: Queries drawn per run: more than a closed loop of a few seconds can
#: send even against a much faster server.
STREAM_LENGTH = 20000
#: Cold answers compared byte for byte: this many, drawn from the first
#: CHECK_WITHIN queries of the stream, which the open loop always sends.
CHECK = 100
CHECK_WITHIN = 200


def answer(service, path: str) -> Dict[str, object]:
    """What ``GET path`` returns, asked of ``service`` in-process (the
    parameter parsing of ``repro.serve.http`` for the benchmark's
    queries)."""
    url = urlsplit(path)
    params = {k: v[0] for k, v in parse_qs(url.query).items()}
    endpoint = url.path.rsplit("/", 1)[-1]
    if endpoint == "health":
        return service.health()
    if endpoint == "map":
        return service.map_summary()
    if endpoint == "cdf":
        weighted: Optional[bool] = None
        if "weighted" in params:
            weighted = params["weighted"] == "true"
        return service.cdf([int(a) for a in params["as"].split(",") if a],
                           weighted=weighted)
    if endpoint == "outage":
        asn = params.get("asn")
        return service.outage(asn=None if asn is None else int(asn),
                              hypergiant=params.get("hypergiant"))
    if endpoint == "anycast":
        return service.anycast(params["service"], int(params["prefix"]),
                               k=int(params.get("k", 3)))
    raise ValueError(f"no in-process answer for {path}")


def hot_stream(store, size: int, length: int, seed: int) -> List[str]:
    """``length`` queries from the ``seeded_queries`` mix: seeded
    permutations of a bounded key pool, one after another, so every
    stretch of the stream sends the pool's mix."""
    from repro.serve import seeded_queries
    pool = [q.url_path()
            for q in seeded_queries(store, size, seed=HOT_POOL_SEED)]
    rng = np.random.default_rng([seed, 0x407])
    stream: List[str] = []
    while len(stream) < length:
        stream += [pool[i] for i in rng.permutation(len(pool))]
    return stream[:length]


def cold_stream(store, length: int, seed: int) -> List[str]:
    """``length`` distinct queries over a key space far larger than the
    answer cache: anycast over every (service, client prefix, k), outage
    over every AS in the map's graph, cdf over every route target and
    weighting."""
    rng = np.random.default_rng([seed, 0xC01D])
    keys = {
        "cdf": [f"/v1/cdf?as={int(t)}{w}"
                for t in store.route_targets()
                for w in ("", "&weighted=true", "&weighted=false")],
        "outage": [f"/v1/outage?asn={int(a)}" for a in store.graph_asns],
    }
    for name in ("cdf", "outage"):
        keys[name] = [keys[name][i]
                      for i in rng.permutation(len(keys[name]))]
    sizes = np.array([len(c) for c in store.svc_clients], dtype=np.int64)
    ends = np.cumsum(sizes)
    flat = rng.choice(int(ends[-1]) * 4, size=length, replace=False)
    client, k = flat // 4, flat % 4 + 1
    svc = np.searchsorted(ends, client, side="right")
    keys["anycast"] = [
        "/v1/anycast?" + urlencode([
            ("service", store.service_keys[s]),
            ("prefix", int(store.svc_clients[s][c - ends[s] + sizes[s]])),
            ("k", kk)])
        for s, c, kk in zip(svc.tolist(), client.tolist(), k.tolist())]
    block = [name for name, count in COLD_BLOCK for __ in range(count)]
    cursor = dict.fromkeys(keys, 0)
    stream: List[str] = []
    while len(stream) < length:
        for pick in rng.permutation(len(block)).tolist():
            name = block[pick]
            if cursor[name] >= len(keys[name]):
                continue
            stream.append(keys[name][cursor[name]])
            cursor[name] += 1
    return stream[:length]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artefact")
    parser.add_argument("out")
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mix", choices=("hot", "cold", "digest"),
                        required=True)
    parser.add_argument("--bench-seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.cli import SCALES
    from repro.scenario import build_scenario
    from repro.serve import MapService, load_store

    scenario = build_scenario(SCALES[args.scale](seed=args.seed))
    store = load_store(args.artefact, scenario)
    result: Dict[str, object] = {"digest": store.digest}
    if args.mix != "digest":
        service = MapService(store)
        if args.mix == "hot":
            paths = hot_stream(store, HOT_POOL, STREAM_LENGTH,
                               args.bench_seed)
            checked = sorted(set(paths))
        else:
            paths = cold_stream(store, STREAM_LENGTH, args.bench_seed)
            rng = np.random.default_rng([args.bench_seed, 0xC4EC])
            checked = [paths[int(i)] for i in
                       rng.choice(CHECK_WITHIN, size=CHECK, replace=False)]
        result["paths"] = paths
        result["refs"] = {path: json.dumps(answer(service, path))
                          for path in checked}
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
