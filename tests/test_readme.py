"""The README's reproduction table and its CLI examples match the CLI."""

import shlex
from pathlib import Path

import pytest

from quasilie import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
TABLE_ARGS = "table --names L,Lq,T,Ttilde,Tinf --labels 2 --max-order 4"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def code_blocks(lang):
    """The bodies of the README's fenced blocks tagged `lang`."""
    blocks, body, tag = [], None, None
    for line in README.splitlines():
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, tag = [], line[3:].strip()
        else:
            if tag == lang:
                blocks.append("\n".join(body))
            body = None
    return blocks


def examples():
    """(arguments, expected stdout lines) of each `$ quasilie ...` line in
    a sh block that is followed by output, without its trailing comment."""
    out = []
    for block in code_blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ quasilie "):
                continue
            shown = []
            for after in lines[i + 1:]:
                if not after or after.startswith("$ "):
                    break
                shown.append(after)
            if shown:
                args = line[len("$ quasilie "):].split("  #")[0]
                out.append((args.strip(), shown))
    return out


EXAMPLES = examples()


def cell_key(row):
    """(name, n, m) of a table row."""
    return tuple(row.split(",")[:3])


def test_reproduction_table_matches_the_cli(capsys):
    assert f"Generated by `quasilie {TABLE_ARGS}`" in " ".join(README.split())
    (block,) = [b for b in code_blocks("") if b.startswith("name,n,m,")]
    header, *lines = block.splitlines()
    # the README prints one label count per column of cells
    cells = [cell for line in lines for cell in line.split()]
    code, out = run(capsys, shlex.split(TABLE_ARGS))
    assert code == 0
    got_header, *rows = out.splitlines()
    assert header == got_header
    assert len(set(map(cell_key, rows))) == len(rows)
    assert sorted(cells, key=cell_key) == sorted(rows, key=cell_key)


@pytest.mark.parametrize("args,shown", EXAMPLES,
                         ids=[args for args, _ in EXAMPLES])
def test_examples_show_the_cli_output(capsys, args, shown):
    code, out = run(capsys, shlex.split(args))
    assert code == 0
    assert out.splitlines() == shown


def test_examples_are_found():
    assert {args.split()[1] for args, _ in EXAMPLES} == {
        "T", "Tinf", "etaP", "delta", "eta"}
