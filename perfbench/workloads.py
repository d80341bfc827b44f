"""The three benchmark workloads.

Each workload is built from a seed (its set-up), then yields operations
one at a time.  ``run`` performs one operation and returns the wall time
of each of its steps with the raw output; ``check`` verifies that output
outside the timed region and returns an error message or ``None``.
``results`` gives the workload's own metrics, its rate among them;
``OUT_IN`` names the one the gated ``out_in_ratio`` reports, and ``pools``
names the step times that are also reported pooled.  ``unwarm`` drops
program caches that an untraced operation would never find warm.  Every
call into groupshare goes through a module attribute at call time, so the
tracer's wrappers see it.

Sizes: ``full`` is the measured size; ``tiny`` exists for the smoke test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shutil
import time
from fractions import Fraction
from pathlib import Path
from random import Random

LAMBDA = Fraction(1, 6)
NGRAM = 12  # substring length of the leak distinguisher
MODULES = ("freegroup", "smallcancel", "tietze", "shamir", "scheme", "securesum", "cli")

SIZES = {
    "full": {
        "nn-cli": {"n": 8, "k": 256, "rank": 3, "relators": 3, "length": 40, "leak_sessions": 2},
        "tn-stream": {"n": 5, "t": 3, "p": 8191, "rank": 3, "relators": 3, "length": 40,
                      "leak_secrets": 20},
        "break": {"rank": 3, "relators": 3, "lengths": (40, 80, 120), "per_length": 4},
    },
    "tiny": {
        "nn-cli": {"n": 3, "k": 16, "rank": 3, "relators": 3, "length": 40, "leak_sessions": 1},
        "tn-stream": {"n": 4, "t": 3, "p": 251, "rank": 3, "relators": 3, "length": 40,
                      "leak_secrets": 4},
        "break": {"rank": 3, "relators": 3, "lengths": (40, 44, 48), "per_length": 1},
    },
}


def load_groupshare() -> dict:
    """Import groupshare (found on ``sys.path``) and return its layer
    modules by name."""
    return {name: importlib.import_module(f"groupshare.{name}") for name in MODULES}


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def leak_advantage(columns, truths) -> tuple[float, int]:
    """Advantage 2|accuracy - 1/2| of guessing "bit 1" for every word that
    shares a NGRAM-letter substring with another word of its column.

    ``columns`` holds lists of packed word strings (``Word.chars``) and
    ``truths`` the matching Dehn verdicts.  Returns the advantage and the
    number of bits guessed."""
    right = total = 0
    for words, truth in zip(columns, truths):
        grams = [{w[i:i + NGRAM] for i in range(len(w) - NGRAM + 1)} for w in words]
        seen: dict[str, int] = {}
        for g in grams:
            for gram in g:
                seen[gram] = seen.get(gram, 0) + 1
        for g, bit in zip(grams, truth):
            guess = any(seen[gram] > 1 for gram in g)
            right += guess == bit
            total += 1
    return (abs(2 * right / total - 1) if total else 0.0), total


class NnCli:
    """Deal an all-participants session with the CLI, then recover it from
    disk through the secure sum; fresh groups and seed every session."""

    OUT_IN = "open_bytes_per_bit"

    def __init__(self, gs, seed: int, size: dict, workdir: Path):
        self.gs, self.seed, self.size, self.workdir = gs, seed, size, workdir
        self.pools: dict[str, tuple[str, ...]] = {}
        self.open_bytes = 0
        self.secret_bits = 0
        self.leak: dict[int, tuple[list, list]] = {}  # session -> (columns, truths)

    def ops(self):
        rng = Random(self.seed)
        digits = self.size["k"] // 4
        i = 0
        while True:
            yield i, rng.getrandbits(32), format(rng.getrandbits(self.size["k"]), f"0{digits}x")
            i += 1

    def unwarm(self) -> None:
        """Empty the program's Dehn-index and regex caches.  Every session
        deals fresh groups, so a session never finds them warm, except the
        second side of a traced pair, which deals the same groups again."""
        self.gs["smallcancel"]._dehn_index.cache_clear()
        re.purge()

    def run(self, op):
        i, session_seed, secret = op
        s = self.size
        session = self.workdir / f"session-{i}"
        cli = self.gs["cli"]
        t0 = time.perf_counter()
        deal = _call_cli(cli, [
            "deal", "--mode", "nn", "--secret", secret, "--n", str(s["n"]),
            "--rank", str(s["rank"]), "--relators", str(s["relators"]),
            "--length", str(s["length"]), "--seed", str(session_seed),
            "--session-dir", str(session),
        ])
        t1 = time.perf_counter()
        recover = _call_cli(cli, [
            "recover", "--session-dir", str(session),
            "--participants", ",".join(str(j) for j in range(1, s["n"] + 1)),
            "--secure-sum", "--seed", str(session_seed),
        ])
        t2 = time.perf_counter()
        return {"deal": t1 - t0, "recover": t2 - t1}, {"deal": deal, "recover": recover}

    @staticmethod
    def corrupt(output):
        code, out, err = output["recover"]
        flipped = out[:-2] + ("0" if out[-2:-1] != "0" else "1") + out[-1:]
        return {**output, "recover": (code, flipped, err)}

    def check(self, op, output) -> str | None:
        i, _, secret = op
        session = self.workdir / f"session-{i}"
        try:
            for step in ("deal", "recover"):
                code, _, err = output[step]
                if code != 0:
                    return f"session {i}: {step} exited {code}: {err.strip()}"
            recovered = output["recover"][1].strip()
            if recovered != secret:
                return f"session {i}: recovered {recovered!r}, dealt {secret!r}"
            self.open_bytes += sum(f.stat().st_size for f in (session / "open").iterdir())
            self.secret_bits += self.size["k"]
            if i < self.size["leak_sessions"]:
                self.leak[i] = self._published(session)
            return None
        finally:
            shutil.rmtree(session, ignore_errors=True)

    def _published(self, session: Path) -> tuple[list, list]:
        """The session's published columns and their Dehn verdicts."""
        sc, fg = self.gs["smallcancel"], self.gs["freegroup"]
        columns, truths = [], []
        for j in range(1, self.size["n"] + 1):
            g = sc.parse_presentation((session / "secure" / f"participant-{j}.grp").read_text())
            lines = (session / "open" / f"bundle-{j}.txt").read_text().splitlines()[1:]
            words = [fg.parse_word(line.partition(" ")[2], g.alphabet) for line in lines]
            columns.append([w.chars for w in words])
            truths.append([sc.dehn_is_trivial(g, w).is_trivial for w in words])
        return columns, truths

    def results(self, ops_per_s: float) -> dict:
        columns = [c for cols, _ in self.leak.values() for c in cols]
        truths = [t for _, ts in self.leak.values() for t in ts]
        advantage, bits = leak_advantage(columns, truths)
        return {
            "secrets_per_s": (ops_per_s, "1/s", "deal and recover cycles"),
            "open_bytes_per_bit": (self.open_bytes / self.secret_bits if self.secret_bits else 0.0,
                                   "B/bit", "bytes under open/ per secret bit"),
            "leak_advantage": (advantage, "ratio", f"over {bits} published share bits"),
        }


class TnStream:
    """Threshold secrets mod p over groups sampled once: deal_tn, then
    recover_share for a random t-quorum and the masked linear combination."""

    OUT_IN = "letters_per_bit"

    def __init__(self, gs, seed: int, size: dict, workdir: Path):
        self.gs, self.seed, self.size = gs, seed, size
        self.pools: dict[str, tuple[str, ...]] = {}
        rng = Random(seed)
        sc = gs["smallcancel"]
        self.groups = [
            sc.random_platform_group(size["rank"], size["relators"], size["length"], LAMBDA, rng)
            for _ in range(size["n"])
        ]
        self.p = size["p"]
        self.k = self.p.bit_length()
        self.cfg = gs["scheme"].SessionConfig(
            n=size["n"], t=size["t"], k=self.k, p=gs["shamir"].PrimeModulus(self.p))
        self.letters = 0
        self.secret_bits = 0
        self.leak: dict[int, list] = {}  # secret index -> its published columns

    def ops(self):
        rng = Random(self.seed + 1)
        i = 0
        while True:
            secret = rng.randrange(self.p)
            quorum = sorted(rng.sample(range(1, self.size["n"] + 1), self.size["t"]))
            yield i, secret, quorum, rng.getrandbits(64)
            i += 1

    def unwarm(self) -> None:
        """Nothing to drop: reusing the groups' cached work is the point."""

    def run(self, op):
        _, secret, quorum, op_seed = op
        scheme, securesum = self.gs["scheme"], self.gs["securesum"]
        rng = Random(op_seed)
        t0 = time.perf_counter()
        columns = scheme.deal_tn(secret, self.cfg, self.groups, rng)
        t1 = time.perf_counter()
        points = [scheme.recover_share(columns[j - 1], self.groups[j - 1], self.p) for j in quorum]
        value, _ = securesum.run_secure_linear_combination(points, self.p, rng)
        t2 = time.perf_counter()
        return {"deal": t1 - t0, "recover": t2 - t1}, (value, columns)

    @staticmethod
    def corrupt(output):
        value, columns = output
        return value + 1, columns

    def check(self, op, output) -> str | None:
        i, secret = op[:2]
        value, columns = output
        if value != secret:
            return f"secret {i}: recovered {value}, dealt {secret}"
        self.letters += sum(len(w) for c in columns for w in c.words)
        self.secret_bits += self.k
        if i < self.size["leak_secrets"]:
            self.leak[i] = columns
        return None

    def results(self, ops_per_s: float) -> dict:
        dehn = self.gs["smallcancel"].dehn_is_trivial
        words = [[w for cols in self.leak.values() for w in cols[j].words]
                 for j in range(self.size["n"])]
        truths = [[dehn(g, w).is_trivial for w in ws] for g, ws in zip(self.groups, words)]
        columns = [[w.chars for w in ws] for ws in words]
        advantage, bits = leak_advantage(columns, truths)
        ratio = self.letters / self.secret_bits if self.secret_bits else 0.0
        return {
            "secrets_per_s": (ops_per_s, "1/s", "deal and recover cycles"),
            "letters_per_bit": (ratio, "letters/bit", "published word letters per secret bit"),
            "leak_advantage": (advantage, "ratio",
                               f"over {bits} published share bits, each participant's "
                               f"words of the first {self.size['leak_secrets']} secrets "
                               "taken as one column"),
        }


class Break:
    """The CLI's tietze-break over a seeded pool of C'(1/6) presentations.
    One operation breaks one presentation of each relator length, in a
    random order, so every operation holds the same mix of lengths."""

    OUT_IN = "break_ratio"

    def __init__(self, gs, seed: int, size: dict, workdir: Path):
        self.gs, self.seed, self.size, self.workdir = gs, seed, size, workdir
        # Step times per length, and pooled over all lengths.
        self.pools = {"break": tuple(f"break_{length}" for length in size["lengths"])}
        rng = Random(seed)
        sc = gs["smallcancel"]
        self.pool = []  # rounds of (length, presentation, path), one per length
        for r in range(size["per_length"]):
            triple = []
            for length in size["lengths"]:
                p = sc.random_platform_group(size["rank"], size["relators"], length, LAMBDA, rng)
                path = workdir / f"pool-{r}-{length}.grp"
                path.write_text(sc.serialize_presentation(p))
                triple.append((length, p, path))
            self.pool.append(triple)
        self.outputs: dict[Path, str] = {}  # first output text per input
        self.letters_in = 0
        self.letters_out = 0

    def ops(self):
        rng = Random(self.seed + 1)
        while True:
            for triple in rng.sample(self.pool, len(self.pool)):
                yield rng.sample(triple, len(triple))

    def unwarm(self) -> None:
        """Nothing to drop: every operation breaks inputs from the same pool."""

    def run(self, op):
        cli = self.gs["cli"]
        inner = cli.break_relators
        captured = []  # the BreakdownResult of the current break, whose moves the check replays

        def capture(presentation):
            captured.append(inner(presentation))
            return captured[-1]

        steps, outputs = {}, []
        cli.break_relators = capture
        try:
            for length, _, path in op:
                out = path.with_suffix(".out")
                captured.clear()
                t0 = time.perf_counter()
                result = _call_cli(cli, ["tietze-break", "--in", str(path), "--out", str(out)])
                steps[f"break_{length}"] = time.perf_counter() - t0
                text = out.read_text() if out.exists() else ""
                outputs.append((result, text, captured[-1] if captured else None))
        finally:
            cli.break_relators = inner
        return steps, outputs

    @staticmethod
    def corrupt(output):
        (result, text, captured), *rest = output
        return [(result, text.replace("\nrelator ", "\nrelator x1 x1 ", 1), captured), *rest]

    def check(self, op, output) -> str | None:
        for (_, p, path), ((code, _, err), text, captured) in zip(op, output):
            if code != 0:
                return f"{path.name}: tietze-break exited {code}: {err.strip()}"
            known = self.outputs.get(path)
            if known is None:
                error = self._verify(p, text, captured)
                if error:
                    return f"{path.name}: {error}"
                self.outputs[path] = text
            elif text != known:
                return f"{path.name}: output differs from the first break of the same input"
        for (_, p, _), (_, _, captured) in zip(op, output):
            self.letters_in += sum(len(r) for r in p.relators)
            self.letters_out += sum(len(r) for r in captured.presentation.relators)
        return None

    def _verify(self, p, text: str, captured) -> str | None:
        sc, tietze = self.gs["smallcancel"], self.gs["tietze"]
        body = "\n".join(line for line in text.splitlines() if not line.startswith("define "))
        try:
            written = sc.parse_presentation(body)
        except ValueError as exc:
            return f"written presentation does not parse: {exc}"
        if written != captured.presentation:
            return "written presentation differs from the computed one"
        if any(len(r) > 3 for r in written.relators):
            return "a relator longer than 3 letters remains"
        if tietze.replay(p, captured.moves) != captured.presentation:
            return "replaying the Tietze moves does not give the output"
        return None

    def results(self, ops_per_s: float) -> dict:
        ratio = self.letters_out / self.letters_in if self.letters_in else 0.0
        return {
            "breaks_per_s": (len(self.size["lengths"]) * ops_per_s, "1/s"),
            "break_ratio": (ratio, "ratio", "relator letters out per relator letter in"),
        }


WORKLOADS = {"nn-cli": NnCli, "tn-stream": TnStream, "break": Break}
