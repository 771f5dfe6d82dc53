"""The three benchmark workloads: seeded corpora, tasks and output checks.

A workload turns a seed into an endless corpus of blocks: block b of
seed s is drawn from its own generator, so any block can be made on
demand and a run never cycles back through its inputs.  A block is a fixed list of task
classes with fixed counts, so every block has the same make-up; only
the inputs inside a class depend on the seed.  The corpus is plain data
(integers, Fractions, strings).  ``run`` builds the program's objects
from one task and calls moorealg; ``check`` compares the outputs, read
back as plain data, with the reference arithmetic in ``refarith`` or
with a property the method must have.  ``check`` returns a list of
problems; an empty list means the task is correct.  Checks call nothing
in moorealg.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import moorealg as ma
from moorealg import CoeffRing, GradingContext, MooreAlgebra, PowerSeries, cli

import refarith as ref


def _rng(workload: str, seed: int, block: int) -> random.Random:
    # string seeds go through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{block}")


def _plain(ps, upto: int) -> list:
    """Coefficients 0..upto of a series over a ring without v, as base scalars."""
    out = [0] * (upto + 1)
    for i, c in ps.coeffs.items():
        if i > upto:
            continue
        if set(c.terms) - {0}:
            raise ValueError(f"coefficient of t^{i} is not a plain scalar")
        out[i] = c.terms.get(0, 0)
    return out


def _support(rng, lo: int, hi: int, share: float) -> list:
    """A fixed share of the exponents lo..hi, drawn at random.

    Fixing how many coefficients are nonzero, rather than drawing each
    one, keeps the cost of a task from swinging with the draw.
    """
    slots = list(range(lo, hi + 1))
    return sorted(rng.sample(slots, round(share * len(slots))))


def _mod(spec: str):
    """The modulus of a field spec: p for "F<p>", None for "Q"."""
    return None if spec == "Q" else int(spec[1:])


def _scalar(spec: str, rng, nonzero=False):
    """A small random scalar: an integer in -4..4 over Q, a residue otherwise."""
    while True:
        x = rng.randrange(-4, 5) if spec == "Q" else rng.randrange(_mod(spec))
        if x or not nonzero:
            return x


class Workload:
    name = ""
    tail_pct = 90  # percentile reported as task_tail_ms
    min_tasks = 100  # a timed run attempts at least this many tasks
    trace_blocks = 1  # a traced run attempts exactly this many blocks

    def block_at(self, seed: int, b: int) -> list:
        """Block b of the seed's corpus."""
        return self.block(_rng(self.name, seed, b))

    def warmup(self):
        """A fixed task, the same for every seed, run once during set-up."""
        return self.block(_rng(self.name, -1, 0))[0]

    def block(self, rng) -> list:
        raise NotImplementedError

    def run(self, task):
        raise NotImplementedError

    def check(self, task, out) -> list:
        raise NotImplementedError


# -- dvr_orbits ---------------------------------------------------------------


class DvrOrbits(Workload):
    """One Z/p^K orbit question per task, at truncation N = 10.

    Canonicalize u, canonicalize u composed with a unit-linear f, and
    canonicalize the first form again; all three forms must agree.  The
    anchor degree k (first unit slot of u) sets the cost class, so each
    block holds a fixed number of tasks per (ring, k).
    """

    name = "dvr_orbits"
    N = 10
    # (p, K, anchor k, tasks per block); the warm-up task is the first class
    CLASSES = ((7, 4, 2, 16), (5, 6, 2, 3), (7, 4, 3, 1))
    tail_pct = 90
    min_tasks = 100
    trace_blocks = 2

    def block(self, rng):
        tasks = []
        for p, K, k, count in self.CLASSES:
            for _ in range(count):
                tasks.append(self._task(rng, p, K, k))
        return tasks

    def _task(self, rng, p, K, k):
        m, N = p**K, self.N

        def unit():
            return rng.randrange(1, p) + p * rng.randrange(m // p)

        u = {1: p * rng.randrange(1, p), k: unit()}
        u.update({i: p * rng.randrange(1, m // p) for i in _support(rng, 2, k - 1, 0.7)})
        u.update({i: rng.randrange(1, m) for i in _support(rng, k + 1, N, 0.7)})
        f = {1: unit()}
        f.update({i: rng.randrange(1, m) for i in _support(rng, 2, N, 0.7)})
        return {"p": p, "K": K, "k": k, "u": u, "f": f}

    def run(self, task):
        ring = CoeffRing("Zp", task["p"], task["K"])
        u = PowerSeries(ring, task["u"], self.N)
        f = PowerSeries(ring, task["f"], self.N)
        moved = ma.compose(u, f)
        first = ma.canonicalize_dvr(u)
        second = ma.canonicalize_dvr(moved)
        again = ma.canonicalize_dvr(first.form)
        return moved, first, second, again

    def check(self, task, out):
        p, K, k, N = task["p"], task["K"], task["k"], self.N
        mod = p**K
        moved, first, second, again = out
        u = ref.dense(task["u"], N, mod)
        want_moved = ref.compose(u, ref.dense(task["f"], N, mod), N, mod)
        problems = []
        if moved.trunc != N or _plain(moved, N) != want_moved:
            problems.append("compose(u, f) disagrees with the reference composition")
        forms = []
        for label, src, cf in (("u", u, first), ("moved", want_moved, second), ("form", None, again)):
            if src is None:
                if not forms:
                    break
                src = forms[0]
            if cf.kind != "canonical" or cf.n != k:
                problems.append(f"{label}: kind {cf.kind} n {cf.n}, want canonical n {k}")
                continue
            if cf.form.trunc != N:
                problems.append(f"{label}: form truncated at {cf.form.trunc}, want {N}")
            form = _plain(cf.form, N)
            wit = _plain(cf.witness, N)
            if wit[0] or wit[1] % p == 0:
                problems.append(f"{label}: witness is not a substitution")
            elif ref.compose(src, wit, N, mod) != form:
                problems.append(f"{label}: witness does not reproduce the form")
            shape = (
                form[1] == p
                and all(form[i] % p == 0 for i in range(2, k))
                and form[k] % p != 0
                and not any(form[k + 1:])
            )
            if not shape:
                problems.append(f"{label}: form {form} is not canonical of degree {k}")
            elif form[k] // p ** (K - 1):
                problems.append(f"{label}: top base-p digit of t^{k} is not gauged to 0")
            forms.append(form)
        if len(forms) == 3 and not forms[0] == forms[1] == forms[2]:
            problems.append("canonical form differs along the orbit or under re-canonicalization")
        return problems


# -- field_orbits -------------------------------------------------------------


def _ring_of(spec):
    return CoeffRing("Q") if spec == "Q" else CoeffRing("Fp", _mod(spec))


class FieldOrbits(Workload):
    """One orbit round trip per task over Q or F_p, p prime to the height.

    reversion(f), act by f, canonicalize and take the orbit invariant
    before and after the move, and act back by the reversion.  The F_7
    tasks also compare act_full with letter-level conjugation at word
    length 8.
    """

    name = "field_orbits"
    # (ring, truncation N, the heights of its tasks in one block, with the
    # action-formula part)
    CLASSES = (("F7", 20, (2, 3, 4), True), ("F11", 24, (2, 3), False), ("Q", 16, (3, 4), False))
    tail_pct = 90
    min_tasks = 100
    trace_blocks = 4
    ACTION_LEN = 8

    def block(self, rng):
        tasks = []
        for spec, N, heights, action in self.CLASSES:
            for n in heights:
                tasks.append(self._task(rng, spec, N, action, n))
        return tasks

    def _task(self, rng, spec, N, action, n):
        u = {n: _scalar(spec, rng, True)}
        u.update({i: _scalar(spec, rng, True) for i in _support(rng, n + 1, N, 0.6)})
        f = {1: _scalar(spec, rng, True)}
        f.update({i: _scalar(spec, rng, True) for i in _support(rng, 2, N, 0.6)})
        task = {"ring": spec, "N": N, "n": n, "u": u, "f": f, "action": None}
        if action:
            L = self.ACTION_LEN

            def part(start, unit=False):
                c = {i: rng.randrange(7) for i in range(start, L + 1, 2) if rng.random() < 0.6}
                if unit:
                    c[1] = rng.randrange(1, 7)
                return c

            task["action"] = {"A": part(2), "B": part(2), "G": part(1), "F": part(1, unit=True)}
        return task

    def run(self, task):
        ring = _ring_of(task["ring"])
        N = task["N"]
        u = PowerSeries(ring, task["u"], N)
        f = PowerSeries(ring, task["f"], N)
        g = ma.reversion(f)
        M = MooreAlgebra.even(u)
        moved = ma.act(M, f)
        out = {
            "g": g,
            "moved": moved.u,
            "cf": ma.canonicalize_char0(u),
            "cf_moved": ma.canonicalize_char0(moved.u),
            "inv": ma.orbit_invariant_char0(M),
            "inv_moved": ma.orbit_invariant_char0(moved),
            "back": ma.act(moved, g).u,
        }
        if task["action"]:
            F7 = CoeffRing("Fp", 7)
            L = self.ACTION_LEN
            A, B, G, F = (PowerSeries(F7, task["action"][k], L) for k in "ABGF")
            Ap, Bp = ma.act_full(A, B, G, F)
            out["got"] = ma.conjugate(
                ma.normalized_endo(GradingContext(1), G, F), ma.moore_mstar(MooreAlgebra.odd(v=B, w=A))
            )
            out["want"] = ma.moore_mstar(MooreAlgebra.odd(v=Bp, w=Ap))
        return out

    def check(self, task, out):
        N, n, mod = task["N"], task["n"], _mod(task["ring"])
        u = ref.dense(task["u"], N, mod)
        f = ref.dense(task["f"], N, mod)
        t = ref.dense({1: 1}, N, mod)
        problems = []
        if out["g"].trunc != N or ref.compose(f, _plain(out["g"], N), N, mod) != t:
            problems.append("reversion: f(g(t)) is not t")
        want_moved = ref.compose(u, f, N, mod)
        if out["moved"].trunc != N or _plain(out["moved"], N) != want_moved:
            problems.append("act(u, f) disagrees with the reference composition")
        back = out["back"]
        if back.trunc != N or _plain(back, N) != u:
            problems.append("acting by f and then by its reversion does not give back u")
        for label, src, cf in (("u", u, out["cf"]), ("moved", want_moved, out["cf_moved"])):
            lead = src[n]
            want = ref.dense({n: lead}, N, mod)
            if cf.kind != "graded_field" or cf.n != n:
                problems.append(f"{label}: kind {cf.kind} n {cf.n}, want graded_field n {n}")
            elif _plain(cf.form, N) != want or cf.form.trunc != N:
                problems.append(f"{label}: canonical form is not {lead}*t^{n}")
            elif ref.compose(src, _plain(cf.witness, N), N, mod) != want:
                problems.append(f"{label}: witness does not reproduce the form")
        (h1, rep1), (h2, rep2) = out["inv"], out["inv_moved"]
        if h1 != n or h2 != n or rep1.terms != rep2.terms:
            problems.append("orbit invariant moved under the action")
        else:
            c, r = u[n], rep1.terms.get(0, 0)
            if mod is None:
                ok = r != 0 and ref.is_nth_power_q(Fraction(c) / r, n)
            else:
                ok = r % mod != 0 and ref.is_nth_power_fp(c * pow(r, -1, mod), n, mod)
            if not ok:
                problems.append(f"invariant class {r} is not u_n = {c} modulo {n}-th powers")
        if task["action"]:
            got, want, L = out["got"], out["want"], self.ACTION_LEN
            for letter in ("onTau", "onT"):
                a, b = getattr(got, letter), getattr(want, letter)
                if min(a.maxlen, b.maxlen) < L:
                    problems.append(f"action formula: {letter} known only to length {min(a.maxlen, b.maxlen)}")
                elif _words(a, L) != _words(b, L):
                    problems.append(f"action formula disagrees with conjugation on {letter}")
        return problems


def _words(x, L) -> dict:
    return {w: c.terms for w, c in x.terms.items() if len(w) <= L and c.terms}


# -- cli_session --------------------------------------------------------------


class CliSession(Workload):
    """One in-process ``moore <verb> ... --json`` call per task.

    Each block runs the verb script SCRIPT once, in order; the series
    text and the numeric options come from the seed.
    """

    name = "cli_session"
    # (generator, its arguments); README.md lists what each one asks
    SCRIPT = (
        ("check", "even"),
        ("check", "odd"),
        ("check", "even", True),
        ("check", "odd", True),
        ("universal", "even"),
        ("universal", "odd"),
        ("hh", "zp5"),
        ("hh", "zp7"),
        ("hh", "golden"),
        ("hh", "field"),
        ("normalize",),
        ("audit",),
        ("act", "q"),
        ("act", "fp"),
        ("height",),
        ("canon", "q"),
        ("canon", "fp"),
        ("invariant", "q"),
        ("invariant", "fp"),
        ("equivalent", "q"),
        ("equivalent", "fp"),
    )
    # p95, not p99: about 1% of tasks, of every verb, run 3-10x slower when
    # the shared machine stalls, so p99 would measure the machine
    tail_pct = 95
    min_tasks = 200
    trace_blocks = 40

    def warmup(self):
        # the first invariant call imports sympy; do it during set-up
        rng = _rng(self.name, -1, 0)
        return self._invariant(rng, "q")

    def block(self, rng):
        return [getattr(self, "_" + verb)(rng, *args) for verb, *args in self.SCRIPT]

    # -- generators: each returns {"verb", "argv", ...data for the check} --

    def _series(self, rng, spec, start, N, step=1, lead=None):
        a = [0] * (N + 1)
        for i in range(start, N + 1, step):
            if rng.random() < 0.6:
                a[i] = _scalar(spec, rng)
        if lead is not None:
            a[lead] = _scalar(spec, rng, True)
        return a

    def _check(self, rng, parity, laurent=False):
        ring = rng.choice(("Q", "F5", "F7"))
        N = rng.randrange(8, 11)
        if laurent:
            # one v-monomial per coefficient, any internal degree
            start, step = (2, 2) if parity == "odd" else (1, 1)

            def text():
                return " + ".join(
                    f"{rng.randrange(1, 5)}*v^{rng.randrange(-2, 3)}*t^{i}"
                    for i in range(start, 7, step)
                    if rng.random() < 0.7
                ) or "v*t^2"

            argv = ["check", "--ring", ring + "[v]", "--series=" + text(), "--trunc", str(N)]
            if parity == "odd":
                argv += ["--parity", "odd", "--series2=" + text()]
            return {"verb": "check", "argv": argv}
        if parity == "even":
            a = self._series(rng, ring, 1, 6)
            argv = ["check", "--ring", ring, "--series=" + ref.format_plain_series(a), "--trunc", str(N)]
        else:
            v = self._series(rng, ring, 2, 6, step=2)
            w = self._series(rng, ring, 2, 6, step=2)
            argv = ["check", "--parity", "odd", "--ring", ring, "--trunc", str(N),
                    "--series=" + ref.format_plain_series(v), "--series2=" + ref.format_plain_series(w)]
        return {"verb": "check", "argv": argv}

    def _universal(self, rng, parity):
        arity = rng.choice((6, 8))
        wordlen = rng.choice((8, 10))
        argv = ["verify-universal", "--parity", parity, "--arity", str(arity), "--trunc", str(wordlen)]
        return {"verb": "verify-universal", "argv": argv}

    def _hh(self, rng, kind):
        if kind == "golden":
            p = rng.choice((5, 7))
            n = rng.choice((2, 3, 4))
            K = rng.randrange(3, 5)
            text = f"{p}*t + v^{n}*t^{n}"
            argv = ["hochschild", "--ring", f"Zp:{p}:{K}[v]", "--series=" + text, "--trunc", str(n + 6)]
            return {"verb": "hh_golden", "argv": argv, "n": n}
        if kind == "field":
            spec = rng.choice(("F5", "F7", "Q"))
            N = 10
            a = self._series(rng, spec, 2, N)
            a[1] = _scalar(spec, rng, True)
            maxdeg = rng.randrange(4, 9)
            argv = ["hochschild", "--ring", spec, "--series=" + ref.format_plain_series(a),
                    "--trunc", str(N), "--maxdeg", str(maxdeg)]
            return {"verb": "hh_field", "argv": argv, "u": a, "mod": _mod(spec), "maxdeg": maxdeg}
        p, K = (5, 6) if kind == "zp5" else (7, 4)
        m, N = p**K, 12
        while True:
            a = [0] * (N + 1)
            a[1] = p * rng.randrange(1, p)
            for i in range(2, N + 1):
                if rng.random() < 0.5:
                    a[i] = rng.randrange(m)
            up = ref.derivative(a, m)
            # keep u' a non-unit mod p at t^0 but a unit somewhere below t^N
            if ref.first_unit_slot(up, p) is not None:
                break
        argv = ["hochschild", "--ring", f"Zp:{p}:{K}", "--series=" + ref.format_plain_series(a), "--trunc", str(N)]
        return {"verb": "hh_zp", "argv": argv, "u": a, "p": p, "K": K}

    def _normalize(self, rng):
        ring = rng.choice(("Q", "F5", "F7"))
        a = self._series(rng, ring, 2, 6, lead=2)
        degree = rng.randrange(1, 3)
        arity = rng.randrange(2, 4)
        argv = ["normalize-cochain", "--ring", ring, "--series=" + ref.format_plain_series(a), "--trunc", "8",
                "--degree", str(degree), "--arity", str(arity), "--seed", str(rng.randrange(1000))]
        return {"verb": "normalize", "argv": argv, "degree": degree}

    def _audit(self, rng):
        d = rng.choice((0, 2))
        terms, bad = [], []
        for i in range(1, 7):
            if i == 1 or rng.random() < 0.7:
                # internal degree of v^j t^i is 2j; consistent means 2j = i(d+2) - 2
                j = (i * (d + 2) - 2) // 2
                if rng.random() < 0.4:
                    j += rng.choice((-1, 1))
                    bad.append(i)
                terms.append(f"{rng.randrange(1, 5)}*v^{j}*t^{i}")
        argv = ["audit", "--ring", "F5[v]", "--series=" + " + ".join(terms), "--trunc", "8", "--d", str(d)]
        return {"verb": "audit", "argv": argv, "bad": bad, "d": d}

    def _act(self, rng, kind):
        spec = "Q" if kind == "q" else rng.choice(("F5", "F7", "F11"))
        N = rng.randrange(8, 13)
        u = self._series(rng, spec, 2, N)
        f = self._series(rng, spec, 2, N, lead=1)
        argv = ["act", "--ring", spec, "--series=" + ref.format_plain_series(u),
                "--series2=" + ref.format_plain_series(f), "--trunc", str(N)]
        return {"verb": "act", "argv": argv, "u": u, "f": f, "N": N, "mod": _mod(spec)}

    def _height(self, rng):
        spec = rng.choice(("Q", "F5", "F7"))
        n = rng.randrange(1, 8)
        a = self._series(rng, spec, n + 1, 12, lead=n)
        argv = ["height", "--ring", spec, "--series=" + ref.format_plain_series(a), "--trunc", "12"]
        return {"verb": "height", "argv": argv, "n": n}

    def _field_u(self, rng, spec, N):
        n = rng.choice((2, 3, 4))
        return self._series(rng, spec, n + 1, N, lead=n), n, _mod(spec)

    def _canon(self, rng, kind):
        spec = "Q" if kind == "q" else rng.choice(("F5", "F7", "F11"))
        N = rng.randrange(8, 13)
        a, n, mod = self._field_u(rng, spec, N)
        argv = ["canonicalize", "--ring", spec, "--series=" + ref.format_plain_series(a), "--trunc", str(N)]
        return {"verb": "canonicalize", "argv": argv, "u": a, "n": n, "N": N, "mod": mod}

    def _invariant(self, rng, kind):
        spec = "Q" if kind == "q" else rng.choice(("F7", "F11", "F13"))
        a, n, mod = self._field_u(rng, spec, 10)
        if spec == "Q":
            a[n] = Fraction(rng.choice((1, 2, 3, 12, 18, 8, -4, -27)), rng.choice((1, 1, 2, 9)))
        argv = ["invariant", "--ring", spec, "--series=" + ref.format_plain_series(a), "--trunc", "10"]
        return {"verb": "invariant", "argv": argv, "c": a[n], "n": n, "mod": mod}

    def _equivalent(self, rng, kind):
        spec = "Q" if kind == "q" else rng.choice(("F7", "F11", "F13"))
        N = 10
        a, n, mod = self._field_u(rng, spec, N)
        if rng.random() < 0.5:
            # a point of the same orbit: a acted on by a seeded substitution
            f = self._series(rng, spec, 2, N, lead=1)
            b = ref.compose(a, f, N, mod)
        else:
            b, _, _ = self._field_u(rng, spec, N)
        argv = ["equivalent", "--ring", spec, "--series=" + ref.format_plain_series(a),
                "--series2=" + ref.format_plain_series(b), "--trunc", str(N)]
        return {"verb": "equivalent", "argv": argv, "a": a, "b": b, "mod": mod}

    # -- run and check --

    def run(self, task):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(task["argv"] + ["--json"])
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def check(self, task, out):
        rc, text, err = out
        if rc != 0:
            return [f"exit status {rc}: {err.strip()}"]
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return ["output is not one JSON object"]
        verb = task["verb"]
        want = getattr(self, "_want_" + verb.replace("-", "_"))(task, data)
        return [] if want is True else [f"{verb}: {want}"]

    @staticmethod
    def _want_check(task, data):
        return data.get("square_zero") is True or "square-zero identity fails"

    @staticmethod
    def _want_verify_universal(task, data):
        return (data.get("square_zero") is True and data.get("verdict") == "PASS") or "universal identity fails"

    @staticmethod
    def _want_hh_zp(task, data):
        p, K, u = task["p"], task["K"], task["u"]
        m = p**K
        rank = ref.first_unit_slot(ref.derivative(u, m), p)
        height = ref.first_unit_slot(u, p)
        if data.get("rank") != rank:
            return f"rank {data.get('rank')}, want the first unit slot of u', {rank}"
        if data.get("mod_p_height") != height or data.get("discrepancy") != (rank != height):
            return f"mod-p height {data.get('mod_p_height')}, want {height}"
        eis = data.get("eisenstein")
        if eis is not None:
            w = ref.parse_plain_series(eis, rank, m)
            if w[rank] != 1 or any(c % p for c in w[:rank]):
                return f"factor {eis} is not distinguished of degree {rank}"
        return True

    @staticmethod
    def _want_hh_golden(task, data):
        n = task["n"]
        got = (data.get("rank"), data.get("mod_p_height"), data.get("discrepancy"))
        return got == (n - 1, n, True) or f"golden family n={n}: got {got}"

    @staticmethod
    def _want_hh_field(task, data):
        mod, maxdeg = task["mod"], task["maxdeg"]
        m = ref.order(ref.derivative(task["u"], mod))
        want = [1 if i < m else 0 for i in range(maxdeg + 1)]
        if data.get("rank") != 0:
            return "rank over a field with a nonzero linear term is not 0"
        return data.get("bruteforce_dims") == want or f"dims {data.get('bruteforce_dims')}, want {want}"

    @staticmethod
    def _want_normalize(task, data):
        ok = data.get("normalized") is True and data.get("witness_degree") == task["degree"] + 1
        return ok or "cochain not normalized"

    @staticmethod
    def _want_audit(task, data):
        d = task["d"]
        got = sorted(item["exponent"] for item in data.get("issues", []))
        if got != task["bad"]:
            return f"offending exponents {got}, want {task['bad']}"
        for item in data["issues"]:
            if item["expected_degree"] != item["exponent"] * (d + 2) - 2:
                return "wrong expected degree"
        return data.get("hh_generator_degrees") == {"z": -d - 1, "t": -d - 2} or "wrong generator degrees"

    @staticmethod
    def _want_act(task, data):
        N, mod = task["N"], task["mod"]
        want = ref.compose(task["u"], task["f"], N, mod)
        got = ref.parse_plain_series(data["series"], N, mod)
        return (data.get("trunc") == N and got == want) or "act disagrees with the reference composition"

    @staticmethod
    def _want_height(task, data):
        return data.get("height") == task["n"] or f"height {data.get('height')}, want {task['n']}"

    @staticmethod
    def _want_canonicalize(task, data):
        N, n, mod, u = task["N"], task["n"], task["mod"], task["u"]
        want = ref.dense({n: u[n]}, N, mod)
        if data.get("kind") != "graded_field" or data.get("n") != n:
            return f"kind {data.get('kind')} n {data.get('n')}"
        if ref.parse_plain_series(data["form"], N, mod) != want:
            return f"form {data['form']} is not u_n*t^n"
        wit = ref.parse_plain_series(data["witness"], N, mod)
        return ref.compose(ref.reduce(u, mod), wit, N, mod) == want or "witness does not reproduce the form"

    @staticmethod
    def _want_invariant(task, data):
        n, mod, c = task["n"], task["mod"], task["c"]
        if data.get("height") != n:
            return f"height {data.get('height')}, want {n}"
        rep = ref.parse_plain_series(data["class"], 0, mod)[0]
        if mod is None:
            ok = rep != 0 and ref.is_nth_power_q(Fraction(c) / rep, n)
        else:
            ok = rep != 0 and ref.is_nth_power_fp(c * pow(rep, -1, mod), n, mod)
        return ok or f"class {rep} is not {c} modulo {n}-th powers"

    @staticmethod
    def _want_equivalent(task, data):
        mod = task["mod"]
        a, b = ref.reduce(task["a"], mod), ref.reduce(task["b"], mod)
        n, n2 = ref.order(a), ref.order(b)
        if n != n2:
            same = False
        elif mod is None:
            same = ref.is_nth_power_q(Fraction(b[n]) / a[n], n)
        else:
            same = ref.is_nth_power_fp(b[n] * pow(a[n], -1, mod), n, mod)
        return data.get("equivalent") is same or f"answer {data.get('equivalent')}, want {same}"


WORKLOADS = {w.name: w for w in (DvrOrbits(), FieldOrbits(), CliSession())}
