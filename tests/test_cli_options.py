"""Each option ``xmtrack`` accepts is documented, and none is accepted by a prefix.

README's ``## Command line`` block shows each subcommand's options: on its
``xmtrack <command>`` lines and on the comment lines under them that start
with an option.  Both are parsed here and compared with ``build_parser()``,
so that neither can drift from the other.
"""

import argparse
import re
from pathlib import Path

import pytest

from xmtrack.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

OPTION = re.compile(r"--[a-z][a-z-]*")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _parser_options() -> dict[str, set[str]]:
    return {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers().items()
    }


def _readme_options() -> dict[str, set[str]]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)
    shown: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("xmtrack "):
            command = line.split()[1]
            shown.setdefault(command, set()).update(OPTION.findall(line.split("#", 1)[0]))
        elif command and (text := line.lstrip("# ")).startswith("--"):  # an option's own comment line
            shown[command].update(OPTION.findall(text.split()[0]))
    return shown


def test_readme_shows_exactly_the_parser_options():
    options = _parser_options()
    assert options == {
        "simulate": {"--out"},
        "track": {"--out", "--motion", "--config"},
        "eval": {"--out"},
        "ablate": {"--suites", "--seed", "--out"},
        "gradcheck": {"--seed", "--inject-bug"},
    }
    assert _readme_options() == options


# A command line each subcommand accepts, to which one option is then added.
VALID_ARGV = {
    "simulate": ["simulate", "scenario.json", "--out", "seq.jsonl"],
    "track": ["track", "seq.jsonl", "--out", "run.json"],
    "eval": ["eval", "run.json", "--out", "m"],
    "ablate": ["ablate", "--out", "table.json"],
    "gradcheck": ["gradcheck"],
}


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_no_proper_prefix_of_an_option_parses(command, capsys):
    parser = build_parser()
    for action in _subparsers()[command]._actions:
        if action.dest == "help":
            continue
        value = [] if action.nargs == 0 else [(action.choices or ["1"])[0]]
        for option in action.option_strings:
            parser.parse_args(VALID_ARGV[command] + [option] + value)
            for prefix in (option[:n] for n in range(3, len(option))):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(VALID_ARGV[command] + [prefix] + value)
                assert exc.value.code == 1, prefix
                assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
