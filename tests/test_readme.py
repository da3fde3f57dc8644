"""The README's Library and Command line examples, run as written, with
each commented result checked, so that the examples cannot drift."""

import functools
import importlib
import re
from pathlib import Path

import trailsum
from trailsum import GrassmannElement, GrassmannMatrix, cli, make_gn, signed_trails

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading, lang):
    """The first ``lang`` code block of the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example():
    code = code_block("Library", "python")
    names = {}
    exec(code, names)
    r = names["r"]
    assert "# S=576 T=576 trails=2304" in code
    assert (r.S, r.T, r.trail_count) == (576, 576, 2304)
    trails = list(signed_trails(make_gn(2, 1)))
    assert "# 8 trails" in code and "((1, 2, 3, 4, 5), 1, 1)" in code
    assert len(trails) == 8 and trails[0] == ((1, 2, 3, 4, 5), 1, 1)
    assert "v1 E_12, v2 E_21, E_11, ..." in code
    assert "(1, 2, 1), (2, 1, 2), ..." in code
    assert names["basis"][:2] == [(1, 2, 1), (2, 1, 2)]
    assert "# row 1 of s_5 over it: (0, +4*v1v2)" in code
    assert [str(e) for e in names["row"]] == ["0", "+4*v1v2"]
    v1, v2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    assert names["mats"][:3] == [GrassmannMatrix.unit(2, 2, 1, 2, v1),
                                 GrassmannMatrix.unit(2, 2, 2, 1, v2),
                                 GrassmannMatrix.unit(2, 2, 1, 1)]
    assert "# algebra entry vs trail sum: agrees" in code
    assert names["rep"].agrees
    assert "# s_6 is an identity on M_2 E^3: True" in code
    assert names["holds"] is True
    assert "# c.histogram == ((0, 994),)" in code
    assert names["c"].histogram == ((0, 994),)


def resolves(dotted):
    """Whether a name such as ``standard_polynomial``, ``trailsum.grassmann``
    or ``trails.SignedTrailWalk`` is an attribute of trailsum or of one of
    its modules."""
    parts = dotted.removeprefix("trailsum.").split(".")
    homes = [trailsum] + [importlib.import_module(f"trailsum.{name}")
                          for name in ("bridge", "cli", "digraph", "grassmann", "trails")]
    for home in homes:
        try:
            functools.reduce(getattr, parts, home)
        except AttributeError:
            continue
        return True
    return False


def test_named_identifiers_exist():
    # every backticked name of the Modules paragraph and every name the
    # Library block imports, so that a retired name cannot linger
    section = README.split("\n## Library\n", 1)[1]
    modules = re.search(r"^Modules: (.*?)\n\n", section, re.S | re.M).group(1)
    names = re.findall(r"`([A-Za-z_][\w.]*)`", modules)
    imported = re.search(r"from trailsum import \((.*?)\)", code_block("Library", "python"), re.S)
    names += re.findall(r"\w+", imported.group(1))
    assert {"trailsum.grassmann", "standard_polynomial_basis_row", "signed_trails",
            "search_classes"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


def test_command_line_example(capsys, tmp_path):
    code = code_block("Command line", "sh")
    args = re.search(r"^trailsum gn (--n \d+ --mbar \d+) --emit g3\.graph ", code, re.M)
    expected = re.search(r"^trailsum signed-sum g3\.graph +# (.+)$", code, re.M)
    assert args.group(1) == "--n 3 --mbar 2"
    assert expected.group(1) == "S=64 T=64 trails=2016"
    path = str(tmp_path / "g3.graph")
    assert cli.main(["gn", *args.group(1).split(), "--emit", path]) == 0
    capsys.readouterr()
    assert cli.main(["signed-sum", path]) == 0
    assert capsys.readouterr().out == expected.group(1) + "\n"
