"""The README against the code it documents: the command synopsis names only
options the parser has, the --config key list is the one `cli` reads, and the
library sketch runs as written."""

import re
from pathlib import Path

import pytest

from ranktail import cli
from ranktail.graph import write_edge_list
from ranktail.synth import SynthSpec, generate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text under the heading ``## <title>``, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def synopsis() -> list[str]:
    """The ``ranktail <cmd> ...`` lines of the "Command line" code block,
    each with its backslash continuations joined."""
    block = section("Command line").split("```\n", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ranktail ")]


def subcommands() -> dict:
    """Each subcommand's parser, by name."""
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return action.choices


@pytest.mark.parametrize("line", synopsis(), ids=lambda line: line.split()[1])
def test_synopsis_flags_are_options_of_their_subcommand(line):
    command = line.split()[1]
    options = subcommands()[command]._option_string_actions
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line))
    assert flags and not flags - set(options), sorted(flags - set(options))


def test_synopsis_covers_every_subcommand():
    assert sorted(line.split()[1] for line in synopsis()) == sorted(subcommands())


def test_config_keys_are_cli_options():
    text = " ".join(section("Command line").split())
    stated = re.search(r"`--config file\.json` is a JSON object that can set (\d+) keys: "
                       r"(.*?)\. ", text)
    keys = re.findall(r"`(\w+)`", stated.group(2))
    assert set(keys) == set(cli._OPTIONS) and len(keys) == len(cli._OPTIONS)
    assert int(stated.group(1)) == len(cli._OPTIONS)


def test_library_sketch_runs(tmp_path, monkeypatch):
    # the README's graph at 20,000 nodes, where the sketch reads it
    spec = SynthSpec(n=20_000, alpha=1.5, d=8.0, outdeg_hist={0: 0.1, 4: 0.68, 24: 0.22},
                     seed=1)
    write_edge_list(generate(spec), tmp_path / "edges.txt.gz")
    monkeypatch.chdir(tmp_path)
    sketch = re.search(r"```python\n(.*?)```", section("Library sketch"), re.S).group(1)
    exec(sketch, {})
