"""Layer boundaries for the traced replay, and the per-layer metrics.

Each boundary is a public function of a quasiact module; the replay records
one span per call. A per-layer time is the summed self time of its spans,
so a layer's number excludes the layers it calls. Counts come from the
arguments and results of the same calls, and from ``replay_pairs``, which
re-runs condition (a) on a verified quasi-action's own maps and times each
group product, element key, composition and similarity count.
"""

from __future__ import annotations

import statistics
import time

from spans import self_times


def _strict(args, kwargs) -> bool:
    return bool(kwargs.get("strict", args[3] if len(args) > 3 else False))


def _verify_counts(args, kwargs, report) -> dict:
    strict_pairs = len(report.strict.pairwise) if report.strict is not None else 0
    pairs = len(report.pair_defects)
    compared = pairs + 1 + len(report.identity_agreements) + strict_pairs
    return {
        "pairs": pairs,
        "strict_pairs": strict_pairs,
        "points": report.carrier_n * compared,
    }


def _reduced_words(labels: int, bound: int) -> int:
    letters = 2 * labels
    return sum(letters * (letters - 1) ** k for k in range(bound))


def _girth_counts(args, kwargs, group) -> dict:
    return {
        "closure_order": group.order,
        "words_certified": _reduced_words(group.labels, group.certified_girth_bound),
    }


def targets(captured: dict) -> list:
    """(module, function, span name, counter) for every traced boundary.

    ``captured`` receives the last loaded quasi-action and the last verify
    report, which ``replay_pairs`` runs on.
    """
    from quasiact import cli, quasiaction, util
    from quasiact.constructions import base, carrier, extension, freeprod, girth, good

    def loaded(args, kwargs, result):
        captured["qa"] = result[0]
        return {"bytes": len(args[0])}

    def verified(args, kwargs, report):
        captured["report"] = report
        return _verify_counts(args, kwargs, report)

    def maps(args, kwargs, qa):
        return {
            "maps": len(qa.assignment),
            "map_bytes": sum(m.images.nbytes for m in qa.assignment.values()),
        }

    return [
        (cli, "main", "cli.main", None),
        (quasiaction, "verify",
         lambda a, k: "verify.strict" if _strict(a, k) else "verify.plain", verified),
        (quasiaction, "emit_certificate", "codec.emit", lambda a, k, r: {"bytes": len(r)}),
        (quasiaction, "load_certificate", "codec.load", loaded),
        (util, "atomic_write_text", "util.write", lambda a, k, r: {"bytes": len(a[1])}),
        (girth, "girth_group_search", "girth.search", _girth_counts),
        (girth, "load_girth_witness", "girth.recertify", None),
        (carrier, "build_partitioned_carrier", "carrier.certify",
         lambda a, k, pc: {"points": pc.size,
                           "bfs_roots": pc.alpha_class_count + pc.beta_class_count}),
        (freeprod, "build_free_product_action", "freeprod.build", None),
        (freeprod, "free_product_qa", "freeprod.word_maps", maps),
        (good, "good_action_upgrade", "good.upgrade", None),
        (base, "regular_action", "base.regular", None),
        (base, "cyclic_quasi_action", "base.cyclic", None),
        (base, "transport_qa", "base.transport", None),
        (base, "direct_product_qa", "base.product", None),
        (extension, "amenable_extension_qa", "extension.build", None),
        (extension, "conjugated_normal_subset", "extension.conjugate",
         lambda a, k, r: {"triples": len(a[0].folner) ** 2 * len(a[1])}),
    ]


def replay_pairs(qa, report, tracer) -> None:
    """Time condition (a)'s calls one by one on qa's maps, in verify's order.

    Every replayed defect and key must equal the one in ``report``; the
    ``mismatches`` counter says how many did not.
    """
    from quasiact.finmap import compose, similarity_defect

    g = qa.owner
    clock = time.perf_counter
    n = qa.carrier_n
    expected = iter(report.pair_defects)
    c = dict.fromkeys(
        ("mul_s", "key_s", "compose_s", "similarity_s", "pairs", "keys", "mismatches"), 0
    )
    with tracer.span("replay.pairs") as s:
        for e in qa.claimed_f:
            for f in qa.claimed_f:
                t0 = clock()
                prod = g.mul(e, f)
                t1 = clock()
                keys = (g.element_key(e), g.element_key(f), g.element_key(prod))
                t2 = clock()
                composed = compose(qa.map_for(e), qa.map_for(f))
                t3 = clock()
                defect = similarity_defect(composed, qa.map_for(prod))
                t4 = clock()
                c["mul_s"] += t1 - t0
                c["key_s"] += t2 - t1
                c["compose_s"] += t3 - t2
                c["similarity_s"] += t4 - t3
                c["pairs"] += 1
                c["keys"] += len(keys)
                want = next(expected, None)
                if want is None or (want.left_key, want.right_key, want.product_key,
                                    want.defect) != (*keys, defect):
                    c["mismatches"] += 1
        itemsize = composed.images.itemsize if c["pairs"] else 0
        # Computed, not measured: a composition reads two image arrays and
        # writes one; a similarity count reads two.
        c["bytes_computed"] = c["pairs"] * (3 + 2) * n * itemsize
        c["mismatches"] += sum(1 for _ in expected)
    s.counters.update(c)


# Per-layer metric -> span names whose self times it sums.
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "girth.search_s": ("girth.search",),
    "girth.recertify_s": ("girth.recertify",),
    "carrier.certify_s": ("carrier.certify",),
    "freeprod.word_maps_s": ("freeprod.word_maps",),
    "good.upgrade_s": ("good.upgrade",),
    "base.witness_s": ("base.regular", "base.cyclic", "base.transport"),
    "base.product_s": ("base.product",),
    "extension.build_s": ("extension.build", "extension.conjugate"),
    "verify.plain_s": ("verify.plain",),
    "verify.strict_s": ("verify.strict",),
    "codec.emit_s": ("codec.emit",),
    "codec.load_s": ("codec.load",),
    "util.write_s": ("util.write",),
}

# Per-layer count -> (span names whose counters it sums, counter, unit). A
# unit of None marks counts that only feed derived metrics and checks.
COUNTERS = {
    "girth.closure_order": (("girth.search",), "closure_order", "count"),
    "girth.words_certified": (("girth.search",), "words_certified", "count"),
    "carrier.points": (("carrier.certify",), "points", "count"),
    "carrier.bfs_roots": (("carrier.certify",), "bfs_roots", "count"),
    "freeprod.maps": (("freeprod.word_maps",), "maps", "count"),
    "freeprod.map_bytes": (("freeprod.word_maps",), "map_bytes", None),
    "extension.triples": (("extension.conjugate",), "triples", "count"),
    "verify.pairs": (("verify.plain", "verify.strict"), "pairs", "count"),
    "verify.strict_pairs": (("verify.plain", "verify.strict"), "strict_pairs", "count"),
    "verify.points": (("verify.plain", "verify.strict"), "points", "count"),
    "codec.emit_bytes": (("codec.emit",), "bytes", None),
    "codec.load_bytes": (("codec.load",), "bytes", None),
    "finmap.compose_calls": (("replay.pairs",), "pairs", "count"),
    "finmap.similarity_calls": (("replay.pairs",), "pairs", "count"),
    "finmap.bytes_computed": (("replay.pairs",), "bytes_computed", "bytes"),
    "groups.mul_calls": (("replay.pairs",), "pairs", "count"),
    "groups.key_calls": (("replay.pairs",), "keys", "count"),
    "replay.mismatches": (("replay.pairs",), "mismatches", None),
}

# Times measured call by call inside replay_pairs: metric -> counter.
REPLAY_TIMES = {
    "finmap.compose_s": "compose_s",
    "finmap.similarity_s": "similarity_s",
    "groups.mul_s": "mul_s",
    "groups.key_s": "key_s",
}


def step_metrics(spans) -> tuple[dict, dict]:
    """(layer times in seconds, exact counts) over the spans of one step."""
    own = self_times(spans)

    def total(names, key):
        return sum(s.counters.get(key, 0) for s in spans if s.name in names)

    times = {
        metric: sum(own[s.id] for s in spans if s.name in names)
        for metric, names in SELF_TIMES.items()
    }
    times.update({m: total(("replay.pairs",), key) for m, key in REPLAY_TIMES.items()})
    counts = {m: total(names, key) for m, (names, key, _) in COUNTERS.items()}
    return times, counts


def report(times_by_iteration: list, counts: dict) -> dict:
    """Per-layer metric -> (samples, unit): times per iteration, counts once."""
    metrics = {name: ([t[name] for t in times_by_iteration], "s")
               for name in times_by_iteration[0]}
    metrics.update(
        {name: ([counts[name]], unit) for name, (_, _, unit) in COUNTERS.items() if unit}
    )

    def rate(key, time_metric):
        seconds = statistics.median(metrics[time_metric][0])
        return counts[key] / 1e6 / seconds if seconds else 0.0

    metrics["freeprod.map_mb"] = ([counts["freeprod.map_bytes"] / 1e6], "MB")
    metrics["codec.bytes"] = ([counts["codec.emit_bytes"] + counts["codec.load_bytes"]], "bytes")
    metrics["codec.emit_mb_per_s"] = ([rate("codec.emit_bytes", "codec.emit_s")], "MB/s")
    metrics["codec.load_mb_per_s"] = ([rate("codec.load_bytes", "codec.load_s")], "MB/s")
    return metrics
