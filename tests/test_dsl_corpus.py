"""Output lock on the circuit parser: every case in data/dsl_corpus.json must
give the recorded diagnostics, and every clean program the recorded
`pretty_print` text.

The corpus holds the bundled circuits, the .opt files under data/, each
statement's well-formed line with a fixed set of mutations, and lines
drawn by random.Random(0) from a fixed token alphabet behind a valid
modes/pair prefix. Rewrite it with
`PYTHONPATH=src python tests/test_dsl_corpus.py --record` (only when a
change of diagnostics or canonical text is intended).
"""

import functools
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from teleoptics.dsl import parse, pretty_print

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "dsl_corpus.json"
PREFIX = "modes 1 a b\nmodes 2 a' b'\npair a a' b b'\n"

#: keyword -> (text before the line, a well-formed line that parses clean there)
WELL_FORMED = {
    "modes": (PREFIX, "modes 1 c d"),
    "pair": ("modes 1 a b\nmodes 2 a' b'\n", "pair a a' b b'"),
    "jones": (PREFIX, "jones 1 a b 0.6 0 0.8 0"),
    "pbs": (PREFIX, "pbs 1 a c d"),
    "rot_to_h": (PREFIX, "rot_to_h 1 a"),
    "rot_h_to_v": (PREFIX, "rot_h_to_v 2 a'"),
    "bs": (PREFIX, "bs 1 a b c d"),
    "phase": (PREFIX, "phase 1 a 0.5"),
    "c1": (PREFIX, "c1 2 a'"),
    "c2": (PREFIX, "c2 2 b'"),
    "merge": (PREFIX, "merge 2 a' b' o"),
    "detect": (PREFIX, "detect 1 a=D1 b=D2"),
    "polarizer": (PREFIX + "detect 1 a=D1 b=D2\n", "polarizer 2 a' 0.6 0 0.8 0"),
}

UNNORMALIZED = ["1", "0", "1", "0"]


def _unnormalized(args):
    return args[:max(1, len(args) - 4)] + UNNORMALIZED


#: mutation name -> edit of the argument tokens after the keyword
MUTATIONS = {
    "well-formed": lambda args: args,
    "short": lambda args: args[:-1],
    "extra": lambda args: args + ["z"],
    "photon-3": lambda args: ["3"] + args[1:],
    "mode-x=y": lambda args: args[:1] + ["x=y"] + args[2:],
    "repeated-mode": lambda args: (args[:2] + [args[1]] + args[3:] if len(args) > 2
                                   else args + [args[-1]]),
    "fast": lambda args: args[:-1] + ["fast"],
    "nan": lambda args: args[:-1] + ["nan"],
    "unnormalized": _unnormalized,
    "photon-3-unnormalized": lambda args: ["3"] + _unnormalized(args)[1:],
    "repeated-mode-unnormalized": lambda args: _unnormalized(
        args[:2] + [args[1]] + args[2:]),
    "fast-unnormalized": lambda args: _unnormalized(args)[:-1] + ["fast"],
}

ALPHABET = (
    "1", "2", "3", "0", "-1", "0.6", "0.8", "0.5", "1e400", "nan", "inf", "fast",
    "a", "b", "c", "d", "o", "a'", "b'", "c'", "x=y", "a=D1", "b=D2", "a'=D3",
    "=D1", "a=", "a==b", "modes", "pair", "detect", "polarizer",
)
MODE_NAMES = ("a", "b", "c", "d", "o", "a'", "b'", "c'", "1'", "D1")


def _random_line(rng: random.Random) -> tuple[str, str]:
    """A well-formed line with zero to three random token edits."""
    keyword = rng.choice(sorted(WELL_FORMED) + ["foo"])
    prefix, line = WELL_FORMED.get(keyword, (PREFIX, "foo 1 a"))
    words = line.split()
    for _ in range(rng.randint(0, 3)):
        edit = rng.randrange(3)
        if edit == 0 and len(words) > 1:
            words[rng.randrange(1, len(words))] = rng.choice(ALPHABET)
        elif edit == 1 and len(words) > 1:
            del words[rng.randrange(1, len(words))]
        else:
            words.insert(rng.randint(1, len(words)), rng.choice(ALPHABET))
    return prefix, " ".join(words)


def _program_line(rng: random.Random) -> str:
    """A well-formed line, half the time with one argument swapped for a
    mode name, so that whole programs reach the semantic checks."""
    words = WELL_FORMED[rng.choice(sorted(WELL_FORMED))][1].split()
    if rng.random() < 0.5:
        words[rng.randrange(1, len(words))] = rng.choice(MODE_NAMES)
    return " ".join(words)


def _cases() -> dict[str, str]:
    circuits = resources.files("teleoptics") / "circuits"
    cases = {f"circuit-{name}": (circuits / name).read_text(encoding="utf-8")
             for name in ("fig1.opt", "pol_entangled.opt")}
    cases.update({f"data-{path.name}": path.read_text(encoding="utf-8")
                  for path in sorted(DATA.glob("*.opt"))})
    for keyword, (prefix, line) in WELL_FORMED.items():
        args = line.split()[1:]
        for name, mutate in MUTATIONS.items():
            cases[f"{keyword}-{name}"] = prefix + " ".join([keyword, *mutate(args)]) + "\n"
    rng = random.Random(0)
    for index in range(320):
        prefix, line = _random_line(rng)
        cases[f"random-line-{index}"] = prefix + line + "\n"
    for index in range(60):
        lines = [_program_line(rng) for _ in range(4)]
        cases[f"random-program-{index}"] = PREFIX + "\n".join(lines) + "\n"
    return cases


def _outcome(text: str) -> dict:
    result = parse(text)
    return {
        "diagnostics": [[d.line, d.col, d.end_col, d.severity, d.message,
                         d.expected, d.found] for d in result.diagnostics],
        "pretty": pretty_print(result.program) if result.ok else None,
    }


def _record() -> dict:
    return {name: {"text": text, **_outcome(text)} for name, text in _cases().items()}


@functools.cache
def _recorded() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_is_the_generated_one():
    recorded = _recorded()
    assert {name: case["text"] for name, case in recorded.items()} == _cases()
    assert sum(name.startswith("random-line-") for name in recorded) >= 300
    assert any(case["pretty"] is not None for case in recorded.values())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_case_matches_recorded_outcome(name):
    case = _recorded()[name]
    assert _outcome(case["text"]) == {"diagnostics": case["diagnostics"],
                                      "pretty": case["pretty"]}


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    CORPUS.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
