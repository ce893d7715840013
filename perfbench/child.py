"""One child process of the quasilie benchmark.

    child.py cli   TRACE SRC -- QUASILIE-ARGS...   one cold CLI job
    child.py query TRACE SRC DEADLINE               one warm query session

A CLI job writes the CLI's stdout untouched and, as the last line of stderr,
``@@perfbench {json}`` with its timings.  A query session reads the maps and
the query stream as JSON on stdin and writes its results as JSON on stdout.
TRACE is 1 to install the per-layer tracer.  Times are time.monotonic(),
which the parent shares, so the parent can time interpreter start.
"""

import sys
import time

MARK = "@@perfbench "


def _load(src, trace):
    """Import the package from SRC, timed, and optionally install the tracer.

    Returns (import start, import end, tracer or None, layer modules), where
    the layer modules are the tracer's proxies when tracing.
    """
    t0 = time.monotonic()
    import quasilie.cli
    t1 = time.monotonic()
    if not quasilie.__file__.startswith(src):
        raise SystemExit(f"quasilie imported from {quasilie.__file__}, "
                         f"not from {src}")
    if not trace:
        import importlib
        return t0, t1, None, {n: importlib.import_module(f"quasilie.{n}")
                              for n in ("trees", "lie", "eta")}
    from tracer import Tracer
    tracer = Tracer()
    return t0, t1, tracer, tracer.install()


def _rss_kb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(trace, src, argv):
    t0, t1, tracer, _ = _load(src, trace)
    import quasilie.cli as cli
    main = tracer.wrapped(cli.main) if tracer else cli.main
    rc = main(argv)
    sys.stdout.flush()
    stats = {"rc": rc, "import_start": t0, "import_done": t1,
             "maxrss_kb": _rss_kb()}
    if tracer:
        stats["layers"] = tracer.metrics()
    import json
    sys.stderr.write("\n" + MARK + json.dumps(stats) + "\n")
    return rc


def _ambient_digest(vectors):
    import hashlib
    h = hashlib.sha256()
    for v in vectors:
        h.update(repr(v).encode())
    return h.hexdigest()


def run_query(trace, src, deadline):
    import json
    job = json.load(sys.stdin)
    _, _, tracer, layer = _load(src, trace)
    trees, lie, eta = layer["trees"], layer["lie"], layer["eta"]

    # Set-up: build the maps and let their lazy caches fill.
    t0 = time.monotonic()
    maps = []
    for n, m in job["maps"]:
        h = eta.eta_prime(n, m)
        incl = lie.d_group(n, m, lie.QUASI).inclusion
        h.preimage_vector([0] * h.target.ngens)
        hash(h.target.zero())
        maps.append((h, incl))
    setup_s = time.monotonic() - t0

    perf = time.perf_counter
    queries, size = job["queries"], job["batch"]
    latencies, batches, records, bad = [], [], [], []
    for start in range(0, len(queries), size):
        if batches and time.monotonic() >= deadline:
            break
        images = set()
        tb = perf()
        for mi, texts in queries[start:start + size]:
            h = maps[mi][0]
            tq = perf()
            terms = {}
            for text in texts:
                lab, raw = trees.parse_unrooted(text)
                c = trees.canonical_unrooted(lab, raw)
                terms[c.tree] = terms.get(c.tree, 0) + c.sign
            image = h(h.source.element(terms))
            x = h.preimage_vector(list(image.coeffs))
            ok = x is not None and h(h.source.element(x)) == image
            images.add((mi, image))
            latencies.append(perf() - tq)
            bad.append(not ok)
            records.append((mi, terms, image))
        batches.append({"wall_s": perf() - tb, "queries": len(records) - start,
                        "distinct": len(images)})

    out = {"setup_s": setup_s, "latencies": latencies, "batches": batches,
           "maxrss_kb": _rss_kb()}
    if tracer:
        out["layers"] = tracer.metrics()

    # Checks, after the timed phase and after the trace snapshot: the image
    # pushed to ambient coordinates must equal the root-summing formula of
    # the query's trees, and eta' (an isomorphism) must keep the count of
    # distinct elements of each batch.  Queries repeat trees and images, so
    # both sides of the first check are cached.
    pushed, formula, ambients = {}, {}, []
    for q, (mi, terms, image) in enumerate(records):
        incl = maps[mi][1]
        key = (mi, image.coeffs)
        if key not in pushed:
            pushed[key] = incl.apply_vector(list(image.coeffs))
        amb = pushed[key]
        want = [0] * incl.target.ngens
        for t, k in terms.items():
            if (mi, t) not in formula:
                formula[mi, t] = eta.eta_vector(incl.target, t.label, t.tree)
            for i, v in enumerate(formula[mi, t]):
                want[i] += k * v
        bad[q] = bad[q] or amb != want
        ambients.append(amb)
    for b, batch in enumerate(batches):
        lo, hi = b * size, b * size + batch["queries"]
        sources = {(mi, maps[mi][0].source.element(terms))
                   for mi, terms, _ in records[lo:hi]}
        if len(sources) != batch["distinct"]:
            bad[lo:hi] = [True] * (hi - lo)
        batch["failed"] = sum(bad[lo:hi])
        batch["digest"] = _ambient_digest(ambients[lo:hi])
    json.dump(out, sys.stdout)
    return 0


def main():
    mode, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if mode == "cli":
        return run_cli(trace, src, sys.argv[5:])
    return run_query(trace, src, float(sys.argv[4]))


if __name__ == "__main__":
    sys.exit(main())
