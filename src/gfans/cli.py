"""Command-line interface.

Subcommands: classify, explore, render, rank2, pair, verify.  Exit codes:
0 success, 1 invariant failure, 2 parse error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import stat
import sys
from math import log10

from .exchange import ExchangeMatrix
from .explorer import (
    ResourceCapExceeded,
    explore,
    find_negative_orthant,
    load_fan_file,
    save_fan_file,
    write_fan,
)
from .rank2 import g_vectors, limit_vectors
from .rank3 import (
    InternalBandSearchFailure,
    UnexpectedCyclicTriplet,
    fan_type,
    limit_rays,
    pair_asymptotics,
)
from .render import RenderOptions, render_svg
from .seeds import (
    SignCoherenceViolation,
    apply_word,
    collector_paused,
    initial_seed,
    verify_seed,
    walk,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _load_matrix(path: str) -> ExchangeMatrix:
    with open(path) as fh:
        doc = json.load(fh)
    return ExchangeMatrix.from_json(doc)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float(x) -> float:
    """float(x) for a limit-ray coordinate or slope, or a ValueError that
    says which command prints it exactly when it is past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(
            "a limit-ray decimal exceeds the float range (about 1.8e308); "
            "`classify --format json` prints it exactly") from None


def _exact(vec) -> list:
    """Quadratic numbers as exact [str(x), str(y), delta] triples."""
    return [[str(c.x), str(c.y), c.delta] for c in vec]


def _ray_lines(v, vp, indent: str) -> list[str]:
    """Text lines for a pair of limit rays, exact and then decimal."""
    def row(vec, fmt):
        return "(" + ", ".join(fmt(c) for c in vec) + ")"

    def dec(c):
        return f"{_float(c):.6f}"

    return [f"{indent}v  = {row(v, repr)}",
            f"{indent}v' = {row(vp, repr)}",
            f"{indent}decimal v  = {row(v, dec)}",
            f"{indent}decimal v' = {row(vp, dec)}"]


def _cmd_classify(args) -> int:
    B = _load_matrix(args.matrix)
    report = fan_type(B)
    rays = {i: limit_rays(B, i) for i in (1, 2, 3)}
    # C(B) is None exactly for acyclic B, and fan_type has already required
    # total infiniteness, the other half of the cluster-cyclic test
    constant = report.markov_constant
    cyclic_verdict = constant is not None and constant <= 4
    doc = {
        "triplet": list(report.triplet),
        "case": report.case_label,
        "markov_constant": constant,
        "cluster_cyclic": cyclic_verdict,
        "swap_applied": report.swap_applied,
        "vertices": [
            {
                "vertex": r.vertex,
                "type": r.tag,
                "c0_d0": list(r.c0_d0),
                "pair_ab": list(r.pair_ab),
                "band_index": r.band_index,
                "boundary_equality": r.boundary_equality,
                "swap_applied": r.swap_applied,
            }
            for r in report.reports
        ],
        "limit_rays": {
            str(i): {
                "v": _exact(rays[i][0]),
                "v_prime": _exact(rays[i][1]),
            }
            for i in rays
        },
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"type of fan: ({', '.join(report.triplet)})   case {report.case_label}",
            f"markov constant: {constant}",
            f"cluster-cyclic: {cyclic_verdict}",
        ]
        for r in report.reports:
            extra = ""
            if r.band_index is not None:
                eq = " (boundary equality)" if r.boundary_equality else ""
                extra = f", N={r.band_index}{eq}"
            lines.append(
                f"  v{r.vertex}: type {r.tag[1:]} with (c0,d0)={r.c0_d0}, "
                f"(a,b)={r.pair_ab}{extra}"
            )
        for i in (1, 2, 3):
            lines.append(f"  limit rays at v{i}:")
            lines.extend(_ray_lines(*rays[i], "    "))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_explore(args) -> int:
    B = _load_matrix(args.matrix)
    fan = explore(B, args.depth, max_cones=args.max_cones)
    if args.out:
        save_fan_file(fan, args.out)
    else:
        write_fan(fan, sys.stdout)
        sys.stdout.write("\n")
    word = find_negative_orthant(fan)
    sys.stderr.write(
        f"{len(fan.cones)} cones, {len(fan.adjacency)} adjacencies, "
        f"{len(fan.frontier)} frontier; negative orthant: "
        f"{list(word) if word is not None else 'not found'}\n"
    )
    return EXIT_OK


def _cmd_render(args) -> int:
    # the options are checked before the document is read, so a refused
    # option costs no load and is reported ahead of a bad document
    opts = RenderOptions(
        arc_resolution=args.arc_resolution,
        shade_frontier=not args.no_shade,
        label_normals=args.label_normals,
    )
    _emit(render_svg(load_fan_file(args.fan), opts), args.out)
    return EXIT_OK


def _cmd_rank2(args) -> int:
    if args.steps < 0:
        raise ValueError("steps must be >= 0")
    lines = [f"(a,b)=({args.a},{args.b})", "m    g_m           g'_m"]
    walks = zip(range(1, args.steps + 1),
                g_vectors("forward", args.a, args.b),
                g_vectors("backward", args.a, args.b))
    for m, g, gp in walks:
        lines.append(f"{m:<4} {str(g):<13} {gp}")
    v, vp = limit_vectors(args.a, args.b)
    lines.append(f"limit slope v2  = {v[1]!r} = {_float(v[1]):.8f}")
    lines.append(f"limit slope v'2 = {vp[1]!r} = {_float(vp[1]):.8f}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_pair(args) -> int:
    B = _load_matrix(args.matrix)
    v, vp = pair_asymptotics(B, args.i, args.j)
    doc = {
        "i": args.i,
        "j": args.j,
        "v": _exact(v),
        "v_prime": _exact(vp),
        "v_decimal": [_float(c) for c in v],
        "v_prime_decimal": [_float(c) for c in vp],
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"pair ({args.i},{args.j})"] + _ray_lines(v, vp, "")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _triple(s) -> tuple:
    return s.b.entries, s.c, s.g


def _word_count(n: int, depth: int) -> int:
    """The number of words of length at most `depth` in the letters 1..n
    with no letter repeated back to back: 1 + sum_{k < depth} n (n-1)^k,
    in closed form."""
    if n == 1:
        return 1 + min(depth, 1)
    if n == 2:
        return 1 + 2 * depth
    return 1 + n * ((n - 1) ** depth - 1) // (n - 2)


def _cmd_verify(args) -> int:
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    B = _load_matrix(args.matrix)
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    too_deep = ValueError(
        f"--depth {args.depth} is too deep to print its count of words "
        f"(more than {limit} digits)")
    # the count exceeds (n - 1)^(depth - 1): refused before it is built
    if limit and B.n > 2 and (args.depth - 1) * log10(B.n - 1) > limit + 1:
        raise too_deep
    try:
        count = (f"verified {_word_count(B.n, args.depth)} seeds to depth "
                 f"{args.depth}\n")
    except ValueError:  # past the limit by a digit or two
        raise too_deep from None
    rng = random.Random(args.seed)
    sys.stdout.write(f"seed: {args.seed}\n")
    failures = []

    def check(s):
        report = verify_seed(s)
        if not all(report.values()):  # the label is made only for a failure
            where = f"word {s.word}" if s.word else "initial seed"
            failures.extend(f"{where}: {name}"
                            for name, ok in report.items() if not ok)

    s0 = initial_seed(B)
    check(s0)
    # verify_seed reads no word, so each labelled seed (C, G) is checked
    # once, under the first word that reaches it
    with collector_paused():
        steps = walk(s0, lambda s: (s.c, s.g), args.depth, {})
        for child, _, _, new in steps:
            if new:
                check(child)
    # a few random word replays double as involution checks
    for _ in range(10):
        word = [rng.randrange(1, B.n + 1) for _ in range(args.depth)]
        if _triple(apply_word(s0, word + word[::-1])) != _triple(s0):
            failures.append(
                f"word {word} is not undone by its reverse: involution")
    checks = ["det_c", "det_g", "sign_coherence", "duality", "d_pairing",
              "involution"]
    for name in checks:
        status = "FAIL" if any(name in f for f in failures) else "ok"
        sys.stdout.write(f"{name}: {status}\n")
    sys.stdout.write(count)
    if failures:
        for f in failures[:20]:
            sys.stdout.write(f"failure: {f}\n")
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfans",
        description="Exact engine for rank-3 G-fans of totally-infinite type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="vertex types and fan case label")
    p.add_argument("matrix")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("explore", help="depth-bounded fan construction")
    p.add_argument("matrix")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-cones", type=int, default=100_000)
    p.add_argument("--out")

    p = sub.add_parser("render", help="fan document to SVG")
    p.add_argument("fan")
    p.add_argument("--out")
    p.add_argument("--arc-resolution", type=float, default=2.0)
    p.add_argument("--no-shade", action="store_true")
    p.add_argument("--label-normals", action="store_true")

    p = sub.add_parser("rank2", help="rank-2 g-vector tables and limits")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--out")

    p = sub.add_parser("pair", help="limit rays for one alternating pair")
    p.add_argument("matrix")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="invariant suite on one matrix")
    p.add_argument("matrix")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and then reused: a
    # parse does not change the parser, and each returns a new namespace
    return build_parser()


def _check_out(path: str) -> None:
    """Raise the OSError that open(path, "w") would raise because `path`
    is a directory or lies in a missing one, before any work is done and
    without creating or truncating a file."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        if os.path.isdir(os.path.dirname(path) or "."):
            return  # a new file in an existing directory
        raise
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        # looked up per call, so a handler replaced after the parser was
        # built is the one that runs
        return globals()[f"_cmd_{args.command}"](args)
    except ResourceCapExceeded as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except (SignCoherenceViolation, InternalBandSearchFailure,
            UnexpectedCyclicTriplet) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        # NotCyclic, json.JSONDecodeError etc. subclass ValueError, and so
        # does _float's error for a limit-ray decimal past the float range;
        # an unreadable or unwritable path is an OSError; any other float
        # past the range is an OverflowError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
