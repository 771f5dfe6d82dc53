"""Command-line front end.

One verb per public operation, plus a seeded selftest runner.  Output
is assembled in full before anything is printed, so a failure path
never leaves a partial report behind.

Exit status: 0 success, 2 parse/usage error (position-annotated where
the input text is at fault), 3 domain error (reported with the library
error name), 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from ._draws import rand_cochain, rand_series
from .ainfty import (
    GradedBasis,
    dualize,
    is_normalized,
    normalize_cochain,
)
from .errors import InternalError, MooreError, ParseError, WildCaseError
from .hochschild import hh_bruteforce, hh_closed_form, quotient_dims
from .moduli import (
    MooreAlgebra,
    act,
    act_full,
    canonicalize_char0,
    canonicalize_dvr,
    degree_audit,
    equivalent,
    orbit_invariant_char0,
)
from .noncomm import (
    GradingContext,
    agree_nc,
    check_square_zero,
    conjugate,
    moore_mstar,
    normalized_endo,
)
from .rings import CoeffRing, format_elem, parse_ring
from .series import (
    EXACT,
    PowerSeries,
    compose,
    format_series,
    height,
    parse_series,
    ps_t,
    reversion,
)

FALLBACK_TRUNC = 16


def _default_trunc() -> int:
    raw = os.environ.get("MOORE_DEFAULT_TRUNC")
    if raw is None:
        return FALLBACK_TRUNC
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"MOORE_DEFAULT_TRUNC is not an integer: {raw!r}", 0) from None


def _parse_trunc(val) -> int:
    # a flag gives a string, a config file any json value: refuse a bool or
    # a float, which int() would take or truncate
    if type(val) is not int and not isinstance(val, str):
        raise ParseError(f"bad truncation {val!r}", 0)
    if str(val).strip().lower() == "exact":
        return EXACT
    try:
        n = int(val)
    except ValueError:
        raise ParseError(f"bad truncation {val!r}", 0) from None
    if n < 0:
        raise ParseError(f"negative truncation {n}: give an integer >= 0 or exact", 0)
    return n


class _Options:
    """Flag values layered over an optional config file; flags win."""

    def __init__(self, args):
        self.args = args
        self.cfg = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path) as fh:
                    self.cfg = json.load(fh)
            except OSError as exc:
                raise ParseError(f"cannot read config file: {exc}", 0) from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad config file: {exc}", 0) from None
            if not isinstance(self.cfg, dict):
                raise ParseError("config file must hold a JSON object", 0)

    def get(self, name, default=None):
        val = getattr(self.args, name, None)
        if val is None:
            val = self.cfg.get(name)
        return default if val is None else val

    def integer(self, name, default=None):
        """The value of name as an int: an int, or a string of one."""
        val = self.get(name, default)
        # json gives bools and floats, which int() would take or truncate
        if val is None or type(val) is int:
            return val
        if isinstance(val, str):
            try:
                return int(val)
            except ValueError:
                pass
        raise ParseError(f"--{name} must be an integer, got {val!r}", 0)

    def require(self, name):
        val = self.get(name)
        if val is None:
            raise ParseError(f"--{name} is required for this verb", 0)
        return val

    def ring(self) -> CoeffRing:
        return parse_ring(str(self.require("ring")))

    def trunc(self) -> int:
        val = self.get("trunc")  # the environment is read only when no flag or key is set
        return _parse_trunc(_default_trunc() if val is None else val)

    def series(self, ring, name="series") -> PowerSeries:
        return parse_series(ring, str(self.require(name)), self.trunc())


def _default_d(parity: str, opt) -> int:
    d = opt.integer("d")
    if d is None:
        return 0 if parity == "even" else 1
    return d


def _build_algebra(opt) -> MooreAlgebra:
    parity = str(opt.get("parity", "even"))
    ring = opt.ring()
    d = _default_d(parity, opt)
    if parity == "even":
        return MooreAlgebra.even(opt.series(ring), d)
    if parity == "odd":
        return MooreAlgebra.odd(opt.series(ring), opt.series(ring, "series2"), d)
    raise ParseError(f"bad parity {parity!r}", 0)


# -- verb handlers ---------------------------------------------------------
# each returns (human lines, json payload)


def _cmd_check(opt):
    M = _build_algebra(opt)
    wordlen = opt.trunc()
    ok, witness = check_square_zero(moore_mstar(M), maxlen=wordlen)
    lines = [f"kind: {M.kind}", f"d: {M.d}", f"ring: {M.ring.spec()}"]
    if M.kind == "even":
        lines.append(f"u: {format_series(M.u)}")
    else:
        lines.append(f"v: {format_series(M.v)}")
        lines.append(f"w: {format_series(M.w)}")
    lines.append(f"m∘m = 0: {'PASS' if ok else 'FAIL'}")
    payload = {
        "kind": M.kind,
        "d": M.d,
        "ring": M.ring.spec(),
        "square_zero": ok,
    }
    if not ok:
        letter, word = witness
        payload["witness"] = {"letter": letter, "word": word}
        lines.append(f"first offending word: {word!r} in the value on {letter!r}")
    return lines, payload


def _cmd_act(opt):
    ring = opt.ring()
    u = opt.series(ring)
    f = opt.series(ring, "series2")
    M = act(MooreAlgebra.even(u, _default_d("even", opt)), f)
    text = format_series(M.u)
    return [f"result: {text}"], {
        "ring": ring.spec(),
        "trunc": M.u.trunc,
        "series": text,
    }


def _cmd_height(opt):
    ring = opt.ring()
    n = height(opt.series(ring))
    return [f"height: {n}"], {"height": n}


def _cmd_canonicalize(opt):
    ring = opt.ring()
    u = opt.series(ring)
    cf = canonicalize_dvr(u) if ring.mode == "Zp" else canonicalize_char0(u)
    form = format_series(cf.form)
    wit = format_series(cf.witness)
    lines = [
        f"kind: {cf.kind}",
        f"n: {cf.n}",
        f"form: {form}",
        f"witness: {wit}",
    ]
    return lines, {
        "kind": cf.kind,
        "n": cf.n,
        "ring": ring.spec(),
        "form": form,
        "witness": wit,
    }


def _cmd_invariant(opt):
    ring = opt.ring()
    M = MooreAlgebra.even(opt.series(ring), _default_d("even", opt))
    n, rep = orbit_invariant_char0(M)
    cls = format_elem(rep)
    return [f"height: {n}", f"class: {cls}"], {"height": n, "class": cls}


def _cmd_equivalent(opt):
    ring = opt.ring()
    d = _default_d("even", opt)
    M1 = MooreAlgebra.even(opt.series(ring), d)
    M2 = MooreAlgebra.even(opt.series(ring, "series2"), d)
    ans = equivalent(M1, M2)
    return [f"equivalent: {'yes' if ans else 'no'}"], {"equivalent": ans}


def _cmd_hochschild(opt):
    ring = opt.ring()
    M = MooreAlgebra.even(opt.series(ring), _default_d("even", opt))
    rep = hh_closed_form(M)
    payload = rep.to_json()
    lines = [
        f"ring: {payload['presentation']['ring']}",
        f"u': {payload['presentation']['uprime']}",
        f"quotient: {payload['presentation']['quotient']}",
        f"rank: {payload['rank']}",
        f"torsion: {payload['torsion']}",
    ]
    if rep.ramification_index is not None:
        lines.append(f"ramification index: {rep.ramification_index}")
    if rep.eisenstein is not None:
        lines.append(f"eisenstein factor: {payload['eisenstein']}")
    if rep.mod_p_height is not None:
        lines.append(f"mod p height: {rep.mod_p_height}")
    lines.append(f"discrepancy: {'yes' if rep.discrepancy else 'no'}")
    maxdeg = opt.integer("maxdeg")
    if maxdeg is not None:
        dims = hh_bruteforce(M, maxdeg)
        payload["bruteforce_dims"] = dims
        lines.append(f"brute-force dims by degree: {dims}")
    return lines, payload


def _cmd_verify_universal(opt):
    parity = str(opt.require("parity"))
    arity = opt.integer("arity", 8)
    if arity < 1:
        raise ParseError("--arity must be positive", 0)
    wordlen = opt.trunc()
    if parity == "even":
        ring = CoeffRing("Poly", symbols=tuple(f"u{i}" for i in range(1, arity + 1)))
        u = PowerSeries(ring, {i: ring.sym(f"u{i}") for i in range(1, arity + 1)}, EXACT)
        M = MooreAlgebra.even(u, 0)
    elif parity == "odd":
        if arity % 2:
            raise ParseError("odd data need an even --arity (top exponent)", 0)
        half = arity // 2
        names = tuple(f"v{i}" for i in range(1, half + 1)) + tuple(
            f"w{i}" for i in range(1, half + 1)
        )
        ring = CoeffRing("Poly", symbols=names)
        v = PowerSeries(ring, {2 * i: ring.sym(f"v{i}") for i in range(1, half + 1)}, EXACT)
        w = PowerSeries(ring, {2 * i: ring.sym(f"w{i}") for i in range(1, half + 1)}, EXACT)
        M = MooreAlgebra.odd(v, w, 1)
    else:
        raise ParseError(f"bad parity {parity!r}", 0)
    ok, witness = check_square_zero(moore_mstar(M), maxlen=wordlen)
    if not ok:
        raise InternalError(f"universal square-zero failed on {witness!r}")
    return ["m∘m = 0: PASS"], {
        "parity": parity,
        "arity": arity,
        "wordlen": wordlen,
        "square_zero": True,
        "verdict": "PASS",
    }


def _cmd_normalize_cochain(opt):
    ring = opt.ring()
    d = _default_d("even", opt)
    seed = opt.integer("seed", 0)
    degree = opt.integer("degree", 1)
    max_arity = opt.integer("arity", 3)
    basis = GradedBasis.two_cell(d)
    u_text = opt.get("series", "t")
    u = parse_series(ring, str(u_text), opt.trunc())
    m = dualize(moore_mstar(MooreAlgebra.even(u, d)), basis)
    c = rand_cochain(ring, basis, random.Random(seed), degree, max_arity)
    norm, witness = normalize_cochain(c, m)
    if not is_normalized(norm):
        raise InternalError("normalization did not land in normalized cochains")
    support = dict.fromkeys(range(norm.arity_bound + 1), 0)
    for word in norm.table:
        support[len(word)] += 1
    lines = [
        f"seed: {seed}",
        "normalized: yes",
        f"witness degree: {witness.degree}",
        "surviving words by arity: "
        + ", ".join(f"{k}:{n}" for k, n in support.items() if n),
    ]
    return lines, {
        "seed": seed,
        "degree": degree,
        "normalized": True,
        "witness_degree": witness.degree,
        "support": {str(k): n for k, n in support.items()},
    }


def _cmd_audit(opt):
    M = _build_algebra(opt)
    issues = degree_audit(M)
    gens = {"z": -M.d - 1, "t": -M.d - 2}
    lines = [f"cohomology generator degrees: z: {gens['z']}, t: {gens['t']}"]
    if issues:
        for item in issues:
            lines.append(
                f"{item['series']} at t^{item['exponent']}: expected internal degree "
                f"{item['expected_degree']}, found {item['found_degrees']}"
            )
    else:
        lines.append("internal degrees: consistent")
    return lines, {"issues": issues, "hh_generator_degrees": gens}


# -- selftest --------------------------------------------------------------


def _suite_action(rng):
    F7 = CoeffRing("Fp", 7)
    odd = GradingContext(1)
    for _ in range(10):
        A = rand_series(F7, rng, 8, ord_min=2, step=2)
        B = rand_series(F7, rng, 8, ord_min=2, step=2)
        G = rand_series(F7, rng, 8, step=2)
        F = rand_series(F7, rng, 8, step=2, unit_linear=True)
        Ap, Bp = act_full(A, B, G, F)
        got = conjugate(
            normalized_endo(odd, G, F), moore_mstar(MooreAlgebra.odd(v=B, w=A))
        )
        want = moore_mstar(MooreAlgebra.odd(v=Bp, w=Ap))
        if not (
            agree_nc(got.onTau, want.onTau, 8) and agree_nc(got.onT, want.onT, 8)
        ):
            raise InternalError("action formula disagrees with conjugation")
    return 10


def _suite_char0_orbits(rng):
    Q = CoeffRing("Q")
    for _ in range(8):
        n = rng.randrange(2, 5)
        lead = PowerSeries(Q, {n: Q.from_int(rng.choice((1, 2, -1, 3)))}, 10)
        u = lead + rand_series(Q, rng, 10, ord_min=n + 1, density=0.6)
        cf = canonicalize_char0(u)
        if compose(u, cf.witness) != cf.form:
            raise InternalError("canonical witness does not reproduce the form")
        inv = orbit_invariant_char0(MooreAlgebra.even(u))
        for _ in range(3):
            f = rand_series(Q, rng, 10, unit_linear=True)
            if orbit_invariant_char0(act(MooreAlgebra.even(u), f)) != inv:
                raise InternalError("orbit invariant moved under the action")
    return 8


def _suite_dvr(rng):
    Z56 = CoeffRing("Zp", 5, 6)
    for _ in range(4):
        while True:
            u1 = PowerSeries(Z56, {1: Z56.from_int(5 * rng.randrange(1, 5))}, 10)
            u = u1 + rand_series(Z56, rng, 10, ord_min=2, density=0.6)
            try:
                cf = canonicalize_dvr(u)
            except WildCaseError:
                continue  # the anchor degree is divisible by 5: draw again
            break
        if cf.kind not in ("trivial", "canonical"):
            raise InternalError("valuation-ring form is neither trivial nor canonical")
        again = canonicalize_dvr(cf.form)
        if again.form.coeffs != cf.form.coeffs:
            raise InternalError("canonicalization is not idempotent")
        for _ in range(2):
            f = rand_series(Z56, rng, 10, unit_linear=True)
            moved = canonicalize_dvr(compose(u, f))
            if moved.form.coeffs != cf.form.coeffs or moved.kind != cf.kind:
                raise InternalError("canonical form moved along the orbit")
    return 4


def _suite_hh(rng):
    F5 = CoeffRing("Fp", 5)
    for _ in range(8):
        u = rand_series(F5, rng, 8, unit_linear=rng.random() < 0.5)
        if 1 not in u.coeffs:
            u = PowerSeries(F5, {**u.coeffs, 2: F5.one()}, 8)
        M = MooreAlgebra.even(u)
        if hh_bruteforce(M, 5) != quotient_dims(u, 5):
            raise InternalError("brute-force dims disagree with the quotient by u'")
    return 8


def _suite_reversion(rng):
    for ring in (CoeffRing("Q"), CoeffRing("Fp", 7)):
        for _ in range(5):
            f = rand_series(ring, rng, 12, unit_linear=True)
            g = reversion(f)
            if compose(f, g) != ps_t(ring, 12):
                raise InternalError("reversion failed the round trip")
    return 10


def _cmd_selftest(opt):
    seed = opt.integer("seed", 0)
    rng = random.Random(seed)
    suites = [
        ("action-vs-conjugation", _suite_action),
        ("char0-orbit-invariance", _suite_char0_orbits),
        ("dvr-canonical-forms", _suite_dvr),
        ("hochschild-brute-vs-quotient", _suite_hh),
        ("reversion-round-trip", _suite_reversion),
    ]
    lines = [f"seed: {seed}"]
    report = {"seed": seed, "suites": {}}
    for name, fn in suites:
        cases = fn(rng)
        lines.append(f"{name}: PASS ({cases} cases)")
        report["suites"][name] = {"cases": cases, "verdict": "PASS"}
    lines.append("selftest: PASS")
    report["verdict"] = "PASS"
    return lines, report


_HANDLERS = {
    "check": _cmd_check,
    "act": _cmd_act,
    "height": _cmd_height,
    "canonicalize": _cmd_canonicalize,
    "invariant": _cmd_invariant,
    "equivalent": _cmd_equivalent,
    "hochschild": _cmd_hochschild,
    "verify-universal": _cmd_verify_universal,
    "normalize-cochain": _cmd_normalize_cochain,
    "audit": _cmd_audit,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="moore",
        description="Exact computations with two-cell algebra structures.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    # options that a config file may set take no argparse default, which
    # would hide the file's value; their handlers hold the defaults

    def add(verb, help_text, *, ring=False, series=False, series2=False, **extra):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--config", help="JSON file with flag defaults; flags win")
        if ring:
            sp.add_argument("--ring", help="coefficient ring, e.g. Q, F5, Zp:5:6[v]")
            sp.add_argument("--trunc", help="series truncation (default 16, or MOORE_DEFAULT_TRUNC)")
        if series:
            sp.add_argument("--series", help="input series, e.g. \"5*t + v*t^2\"")
        if series2:
            sp.add_argument("--series2", help="second series (substitution, partner, or comparand)")
        for name, kw in extra.items():
            sp.add_argument(f"--{name.replace('_', '-')}", **kw)
        return sp

    add(
        "check",
        "validate a structure and check its square is zero",
        ring=True,
        series=True,
        series2=True,
        parity={"choices": ("even", "odd"), "help": "default even"},
        d={"type": int},
    )
    add("act", "substitute a series into an even structure", ring=True, series=True, series2=True, d={"type": int})
    add("height", "first nonzero exponent of a series", ring=True, series=True)
    add("canonicalize", "orbit representative with witness", ring=True, series=True)
    add("invariant", "field-mode orbit invariant", ring=True, series=True, d={"type": int})
    add(
        "equivalent",
        "decide whether two even structures share an orbit",
        ring=True,
        series=True,
        series2=True,
        d={"type": int},
    )
    add(
        "hochschild",
        "cohomology analysis of an even structure",
        ring=True,
        series=True,
        maxdeg={"type": int, "help": "also run the brute-force complex up to this t-degree"},
    )
    add(
        "verify-universal",
        "square-zero check with formal coefficients",
        ring=False,
        parity={"choices": ("even", "odd"), "help": "required"},
        arity={"type": int, "help": "top exponent carrying a formal coefficient (default 8)"},
        trunc={"help": "word-length cap (default 16 or MOORE_DEFAULT_TRUNC)"},
    )
    add(
        "normalize-cochain",
        "normalize a seeded random cochain over an even structure",
        ring=True,
        series=True,
        d={"type": int},
        degree={"type": int, "help": "cochain degree (default 1)"},
        arity={"type": int, "help": "largest cochain arity (default 3)"},
        seed={"type": int, "help": "default 0"},
    )
    add(
        "audit",
        "internal-degree consistency report",
        ring=True,
        series=True,
        series2=True,
        parity={"choices": ("even", "odd"), "help": "default even"},
        d={"type": int},
    )
    add("selftest", "run the seeded property suites", seed={"type": int, "help": "default 0"})
    return top


def _attach_series_values(argv) -> list:
    """Glue a series that starts with "-" onto its flag as --flag=TEXT.

    argparse reads such a token as an option, so "--series -2*t^4" would
    otherwise fail with "expected one argument".
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in ("--series", "--series2") and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_series_values(argv))
    try:
        opt = _Options(args)
        lines, payload = _HANDLERS[args.verb](opt)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MooreError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
