"""The CLI contract corpus replayed against the committed expected outputs."""

import json

from contract import DATA, commands, mismatches, run_command


def test_cli_contract_corpus():
    expected = json.loads((DATA / "expected.json").read_text())
    found = []
    for name, argv in commands().items():
        actual = run_command(argv, DATA)
        if argv[0] == "generate":
            problem = (DATA / name.split(" ", 1)[1]).read_text()
            if (actual["exit"], actual["stdout"]) != (0, problem):
                found.append(f"{name}: output differs from the committed problem file")
        else:
            found += [f"{name}: {m}" for m in mismatches(expected.pop(name), actual)]
    assert not expected, f"stale entries: {sorted(expected)}"
    assert not found, "\n".join(found[:20])
