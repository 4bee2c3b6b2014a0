"""Command-line front end.

One subcommand family per subsystem; JSON on stdout for structured
results, CSV files for bulk tables, bare tuples for single vectors.
Exit code 0 on success, nonzero with a diagnostic on stderr otherwise.

The instance options are declared once, in two parent parsers: one
holds `--p`, the other adds `--params` to it.  Every subcommand that
takes an instance lists one of them first, and its handler builds
`(modulus, params)` with `_instance`.  Files are written by the library
(`orbit.write_census_csv`, `orbit.write_census_json`,
`dip.write_timing_csv`), not here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dip as dip_mod
from . import kx as kx_mod
from . import orbit as orbit_mod
from . import prng as prng_mod
from . import symbolic as sym_mod
from .field import make_modulus
from .magma import mul, params as make_params, vector as make_vector
from .power import (check_internal_commutativity, check_power_associativity,
                    check_power_identity, pow_fast, pow_iter)


def _ints(text: str) -> list[int]:
    """The comma-separated integers of text; [] if every field is empty."""
    fields = text.split(",")
    if any(fields) and not all(fields):
        raise ValueError(f"empty field in integer list {text!r}")
    return [int(x) for x in fields if x]


def _vec(text: str, modulus):
    return make_vector(_ints(text), modulus)


def _instance(args):
    """The (modulus, params) named by --p and --params."""
    m = make_modulus(args.p)
    return m, make_params(_ints(args.params), m)


def _fmt_vec(v) -> str:
    return "(" + ",".join(str(c) for c in v.components) + ")"


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mlmagma",
        description="second-order multilinear magma toolkit over prime fields")
    sub = top.add_subparsers(dest="command", required=True)
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument("--p", type=int, required=True)
    instance = argparse.ArgumentParser(add_help=False, parents=[modulus])
    instance.add_argument("--params", required=True)

    q = sub.add_parser("mul", help="multiply two vectors", parents=[instance])
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)

    q = sub.add_parser("pow", help="left-associative power", parents=[instance])
    q.add_argument("--a", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--check-iter", action="store_true",
                   help="also run the iterative power and require agreement")

    q = sub.add_parser("check", help="single-element algebra checkers")
    ck = q.add_subparsers(dest="kind", required=True)
    for kind in ("assoc", "commute", "power-identity"):
        c = ck.add_parser(kind, parents=[instance])
        c.add_argument("--a", required=True)
        if kind == "assoc":
            c.add_argument("--max-n", type=int, default=6)
        else:
            c.add_argument("--max-m", type=int, default=8)
            c.add_argument("--max-n", type=int, default=8)

    q = sub.add_parser("sym", help="symbolic expansion over Z[a0,a1,a2,A..E]")
    sy = q.add_subparsers(dest="kind", required=True)
    c = sy.add_parser("expand")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--component", type=int, choices=(0, 1, 2), default=None)
    c = sy.add_parser("verify")
    c = sy.add_parser("count")
    c.add_argument("--max-n", type=int, default=6)

    q = sub.add_parser("orbit", help="orbit classification and censuses")
    ob = q.add_subparsers(dest="kind", required=True)
    c = ob.add_parser("length", parents=[instance])
    c.add_argument("--a", required=True)
    c = ob.add_parser("scan", parents=[instance])
    c.add_argument("--out", help="census CSV path")
    c.add_argument("--json", dest="json_path", help="summary JSON path")
    c.add_argument("--cap", type=int, default=orbit_mod.DEFAULT_FULL_SCAN_CAP,
                   help="largest p accepted for a full scan")
    c = ob.add_parser("sweep", parents=[modulus])
    c.add_argument("--c", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--e", type=int, required=True)
    c.add_argument("--a-values", help="comma list, default all of Z_p")
    c.add_argument("--b-values", help="comma list, default all of Z_p")
    c.add_argument("--out", help="per-pair census CSV path")
    c.add_argument("--json", dest="json_path", help="aggregate JSON path")
    c = ob.add_parser("search", parents=[instance])
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--second-components", default="1,2")

    q = sub.add_parser("prng", help="pattern PRNG operations")
    pr = q.add_subparsers(dest="kind", required=True)
    c = pr.add_parser("run")
    c.add_argument("--config", required=True, help="PRNG config JSON file")
    c.add_argument("--count", type=int, required=True)
    c.add_argument("--format", choices=("csv", "bytes"), default="csv")
    c = pr.add_parser("cycle")
    c.add_argument("--config", required=True)
    c.add_argument("--cap", type=int, default=None,
                   help="report exceeded_cap when tail + period exceeds N "
                        "(default: no bound)")
    c = pr.add_parser("uniformity")
    c.add_argument("--config", required=True)
    c.add_argument("--samples", type=int, required=True)
    c = pr.add_parser("search", parents=[instance])
    c.add_argument("--pattern", required=True)
    c.add_argument("--trials", type=int, default=500)
    c.add_argument("--rng-seed", type=int, default=0)
    c.add_argument("--side", choices=prng_mod.SIDES, default="right")

    q = sub.add_parser("dip", help="iteration-count recovery")
    dp = q.add_subparsers(dest="kind", required=True)
    c = dp.add_parser("solve", parents=[instance])
    c.add_argument("--base", required=True)
    c.add_argument("--target", required=True)
    c.add_argument("--cap", type=int, required=True)
    c = dp.add_parser("timing", parents=[instance])
    c.add_argument("--exponents", default=",".join(str(2**k) for k in range(10, 17)))
    c.add_argument("--samples", type=int, default=3)
    c.add_argument("--out", help="timing CSV path")

    q = sub.add_parser("kx", help="key exchange demo and sessions")
    kc = q.add_subparsers(dest="kind", required=True)
    for kind in ("demo", "listen", "connect"):
        c = kc.add_parser(kind, parents=[instance])
        c.add_argument("--base", required=True)
        c.add_argument("--bits", type=int, default=64)
        c.add_argument("--additive", action="store_true",
                       help="insecure a^(m+n) variant, for study")
        if kind == "demo":
            c.add_argument("--seed", type=int, default=None,
                           help="RNG seed for a reproducible transcript")
        if kind == "listen":
            c.add_argument("--host", default="127.0.0.1")
            c.add_argument("--port", type=int, required=True)
            c.add_argument("--once", action="store_true")
        if kind == "connect":
            c.add_argument("--host", default="127.0.0.1")
            c.add_argument("--port", type=int, required=True)

    return top


def _cmd_mul(args) -> int:
    m, ps = _instance(args)
    print(_fmt_vec(mul(_vec(args.a, m), _vec(args.b, m), ps)))
    return 0


def _cmd_pow(args) -> int:
    m, ps = _instance(args)
    a = _vec(args.a, m)
    result = pow_fast(a, args.n, ps)
    if args.check_iter:
        other = pow_iter(a, args.n, ps)
        if other != result:
            raise RuntimeError(
                f"pow_fast {_fmt_vec(result)} != pow_iter {_fmt_vec(other)}")
    print(_fmt_vec(result))
    return 0


def _cmd_check(args) -> int:
    m, ps = _instance(args)
    a = _vec(args.a, m)
    if args.kind == "assoc":
        ok, witness = check_power_associativity(a, ps, args.max_n)
    elif args.kind == "commute":
        ok, witness = check_internal_commutativity(a, ps, args.max_m, args.max_n)
    else:
        ok, witness = check_power_identity(a, ps, args.max_m, args.max_n)
    _emit({"check": args.kind, "ok": ok,
           "counterexample": None if ok else repr(witness)})
    return 0 if ok else 1


def _cmd_sym(args) -> int:
    if args.kind == "expand":
        comps = (args.component,) if args.component is not None else (0, 1, 2)
        sys.stdout.write(sym_mod.expansion_listing(args.n, comps))
        return 0
    if args.kind == "count":
        rows = []
        for n in range(1, args.max_n + 1):
            poly = sym_mod.sym_pow(n).c0
            rows.append({"n": n,
                         "a_monomials": poly.a_monomial_count(),
                         "monomials": poly.monomial_count(),
                         "bound": sym_mod.a_monomial_bound(n)})
        _emit({"component": 0, "counts": rows})
        return 0
    # verify
    checks = {
        "square_matches_gh": sym_mod.sym_pow(2) == sym_mod.sym_square_gh(),
        "cube_matches_reference": sym_mod.sym_pow(3) == sym_mod.reference_cube(),
    }
    _emit({"ok": all(checks.values()), "checks": checks})
    return 0 if all(checks.values()) else 1


def _cmd_orbit(args) -> int:
    if args.kind == "sweep":
        m = make_modulus(args.p)
        a_values = None if args.a_values is None else _ints(args.a_values)
        b_values = None if args.b_values is None else _ints(args.b_values)
        result = orbit_mod.param_sweep(m, args.c, args.d, args.e,
                                       a_values, b_values)
        reports = result.reports
    else:
        m, ps = _instance(args)
        if args.kind == "length":
            rec = orbit_mod.orbit_length(_vec(args.a, m), ps)
            _emit({"start": list(rec.start.components), "tail": rec.tail,
                   "period": rec.period,
                   "cycle_rep": list(rec.cycle_rep.components)})
            return 0
        if args.kind == "search":
            found = orbit_mod.heuristic_search(
                ps, args.budget, tuple(_ints(args.second_components)))
            _emit({"target_period": args.p * args.p - 1,
                   "found": [{"start": list(r.start.components),
                              "period": r.period} for r in found]})
            return 0
        result = reports = orbit_mod.scan_space(ps, full_scan_cap=args.cap)
    if args.out:
        orbit_mod.write_census_csv(reports, args.out)
    if args.json_path:
        orbit_mod.write_census_json(result, args.json_path)
    _emit(result.to_dict())
    return 0


def _cmd_prng(args) -> int:
    if args.kind == "search":
        _, ps = _instance(args)
        hits = prng_mod.seed_search(ps, _ints(args.pattern), args.trials,
                                    rng_seed=args.rng_seed, side=args.side)
        # the state space, not the reachable (p³ − 1)·len (prng docstring);
        # kept so that this stdout does not change
        _emit({"trials": args.trials,
               "max_period": args.p**3 * len(_ints(args.pattern)),
               "leaderboard": [
                   {"period": h.period, "config": h.config.to_dict()}
                   for h in hits]})
        return 0
    config = prng_mod.PrngConfig.from_json(Path(args.config).read_text())
    if args.kind == "run":
        if args.format == "bytes":
            sys.stdout.buffer.write(prng_mod.byte_stream(config, args.count))
            return 0
        outputs = prng_mod.iter_outputs(config, args.count)
        print("step,x0,x1,x2")
        for i, (x0, x1, x2) in enumerate(outputs):
            print(f"{i},{x0},{x1},{x2}")
        return 0
    if args.kind == "cycle":
        res = prng_mod.prng_cycle_length(config, args.cap)
        _emit({"tail": res.tail, "period": res.period,
               "exceeded_cap": res.exceeded_cap,
               "state_space": config.state_space})
        return 0
    # uniformity
    rep = prng_mod.uniformity_stats(config, args.samples)
    out = rep.to_dict()
    del out["counts"]  # bulky; keep the summary on stdout
    _emit(out)
    return 0


def _cmd_dip(args) -> int:
    m, ps = _instance(args)
    if args.kind == "solve":
        inst = dip_mod.DipInstance(_vec(args.base, m), _vec(args.target, m),
                                   ps, args.cap)
        res = dip_mod.dip_bruteforce(inst)
        _emit({"exponent": res.exponent, "steps": res.steps, "cap": args.cap})
        return 0 if res.exponent is not None else 1
    rows = dip_mod.dip_timing(ps, _ints(args.exponents), args.samples)
    if args.out:
        dip_mod.write_timing_csv(rows, args.out)
    _emit({"rows": [row._asdict() for row in rows]})
    return 0


def _cmd_kx(args) -> int:
    import random as _random

    m, ps = _instance(args)
    pub = kx_mod.KxPublicParams(ps, _vec(args.base, m))
    mode = kx_mod.MODE_ADDITIVE if args.additive else kx_mod.MODE_MULTIPLICATIVE
    if args.kind == "demo":
        rng = _random.Random(args.seed) if args.seed is not None else None
        ex = kx_mod.run_local_exchange(pub, args.bits, rng, mode)
        _emit(ex.transcript())
        return 0 if ex.match else 1
    if args.kind == "listen":
        kx_mod._check_bits(args.bits)    # before the listener is announced
        listener = kx_mod.make_listener(args.host, args.port)
        print(f"listening on {args.host}:{listener.getsockname()[1]}",
              file=sys.stderr)
        kx_mod.serve(listener, pub, args.bits, once=args.once, mode=mode,
                     on_result=lambda r: _emit(
                         r.to_dict() if hasattr(r, "to_dict") else
                         {"error": str(r)}))
        return 0
    result = kx_mod.connect(args.host, args.port, pub, args.bits, mode=mode)
    _emit(result.to_dict())
    return 0


_HANDLERS = {
    "mul": _cmd_mul,
    "pow": _cmd_pow,
    "check": _cmd_check,
    "sym": _cmd_sym,
    "orbit": _cmd_orbit,
    "prng": _cmd_prng,
    "dip": _cmd_dip,
    "kx": _cmd_kx,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 0
    except (ValueError, RuntimeError, OSError, kx_mod.KxError) as exc:
        print(f"mlmagma: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
