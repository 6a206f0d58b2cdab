"""Referee for the CLI front end: its parse surface and the configs it builds.

Both are pinned as sha256 digests.  The parse surface is every leaf
command's arguments (option strings, dest, default, type, choices,
nargs, const, required and action class); the configs are the ones each
grid-building command hands to the library for a fixed argument list,
compared by fingerprint.  A change to the front end that keeps both
digests accepts and builds exactly what it did before.  Nothing is
simulated: the library call each command makes is intercepted.

A deliberate change to the surface (a new flag, a new registry entry in
a ``choices`` list) or to the seeds a command draws changes a digest;
re-pin it from :func:`surface` / :func:`handed_configs` in that change.
"""

import argparse
import hashlib
import json
from types import SimpleNamespace

import pytest

from repro import cli
from repro.store.fingerprint import config_fingerprint


def _leaves(parser, path=()):
    """``(command path, parser)`` for every parser without subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, path + (name,))
            return
    yield " ".join(path), parser


def _action(action) -> dict:
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "action": type(action).__name__,
    }


def surface() -> dict[str, list[dict]]:
    """Each leaf command's positionals in parse order, then its options
    sorted by option strings (their declaration order does not parse)."""
    leaves = {}
    for name, parser in _leaves(cli._build_parser()):
        actions = [_action(action) for action in parser._actions]
        leaves[name] = (
            [a for a in actions if not a["option_strings"]]
            + sorted((a for a in actions if a["option_strings"]),
                     key=lambda a: a["option_strings"])
        )
    return leaves


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_parse_surface_is_pinned():
    leaves = surface()
    assert len(leaves) == 15
    # 90 arguments, plus each leaf's -h.
    assert sum(len(actions) for actions in leaves.values()) == 105
    assert _digest(json.dumps(leaves, sort_keys=True)) == (
        "21fda7f939589388f72a7b6f0457dc97f6b0495db416afee7dd01967c4080d39"
    ), json.dumps(leaves, sort_keys=True, indent=1)


class _Handed(Exception):
    """Raised by the stand-in library once it has the configs."""


def handed_configs(argv, monkeypatch) -> list:
    """The configs ``main(argv)`` hands to the library, in order."""
    configs = []

    def run_single(config, **_):
        configs.append(config)
        return SimpleNamespace(to_dict=dict)

    class Library:
        def __init__(self, *_, **__):
            pass

        def run(self, batch):
            configs.extend(batch)
            raise _Handed

        enqueue = run

    monkeypatch.setattr(cli, "run_single", run_single)
    monkeypatch.setattr(cli, "Campaign", Library)
    monkeypatch.setattr("repro.dist.Coordinator", Library)
    try:
        cli.main(argv)
    except _Handed:
        pass
    return configs


#: command -> (argv, number of configs, sha256 over their fingerprints).
#: ``STORE`` stands for a fresh store directory.
HANDED = {
    "run": (
        ["run", "--system", "luna", "--cca", "bbr", "--capacity", "15",
         "--queue", "0.5", "--seed", "7", "--profile", "smoke", "--json"],
        1,
        "5c4b1db3a5a60cbed0811abf24a63d0399f1709ea6aaa3db622a3c7a2d113204",
    ),
    "run-seeds": (
        ["run", "--system", "stadia", "--capacity", "35", "--seeds", "3",
         "1", "4", "--json"],
        3,
        "43398d3049789d3f7ce79b4b6ce729b620edda15718836e7068721632117ea2c",
    ),
    "condition": (
        ["condition", "--system", "geforce", "--cca", "cubic", "--seed", "5",
         "--iterations", "4", "--profile", "paper"],
        4,
        "cbd908e9e5ec32f9c30c8711a637ba4cae2282177e11baecf11dbf1cb8a7cee4",
    ),
    "table1": (
        ["table1", "--iterations", "2", "--profile", "smoke"],
        6,
        "95ea664b7e17c1a0bd9e879abc4f6ce710182e0c6b9c19fd101d67125d095c14",
    ),
    "campaign": (
        ["campaign", "--ccas", "solo", "cubic", "bbr", "--iterations", "2",
         "--seed", "11"],
        162,
        "84b770146773e197ee8dd9f9d6ed16a0de8255a854b596ea9649ad179c5f09ae",
    ),
    "dist-coordinate": (
        ["dist", "coordinate", "--systems", "luna", "stadia", "--capacities",
         "25", "15", "--queues", "7", "0.5", "--iterations", "3",
         "--profile", "smoke", "--store", "STORE"],
        48,
        "7c97802874d9ab3f8a49dc5732a3affd142b72b121ad150c792798218523f8f3",
    ),
}


@pytest.mark.parametrize("command", HANDED)
def test_configs_handed_to_the_library_are_pinned(command, tmp_path,
                                                   monkeypatch):
    argv, count, digest = HANDED[command]
    argv = [str(tmp_path / "store") if a == "STORE" else a for a in argv]
    fps = [config_fingerprint(c) for c in handed_configs(argv, monkeypatch)]
    assert len(fps) == count
    assert _digest("\n".join(fps)) == digest
