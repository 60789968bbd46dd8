import ast
import itertools
import re
import types
from pathlib import Path

import fractal_strings
from fractal_strings import gauge, harness, spec, strings


def test_all_names_exactly_the_public_imports():
    public = {name for name, value in vars(fractal_strings).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fractal_strings.__all__) == public
    assert fractal_strings.__all__ == sorted(fractal_strings.__all__)


def _readme_spec_table():
    """(payload, key, type, default) of each row of the README's spec table."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| payload | key | type | default |") + 2
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        payload, key, kind, default = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((payload, key.strip("`"), kind, default))
    return rows


def _backticked(text):
    return set(re.findall(r"`([^`]+)`", text))


def test_readme_spec_table_lists_exactly_the_readers_kinds_and_keys():
    tables = {"config": harness._CONFIG, "`grids`": harness._GRIDS}
    tables.update({"`%s` string" % kind: rows for kind, (rows, _) in strings._KINDS.items()})
    tables.update({"`%s` gauge" % form: rows for form, (rows, _) in gauge._FORMS.items()})
    names = {spec.number: "number", spec.count: "count", spec.numbers: "number list",
             gauge.gauge_from_json: "gauge spec"}
    want = [(payload, key) for payload, rows in tables.items() for key in rows]
    want += [("string spec", "kind"), ("gauge spec", "form")]
    table = _readme_spec_table()
    assert sorted((payload, key) for payload, key, _, _ in table) == sorted(want)
    for payload, key, kind, default in table:
        if payload in ("string spec", "gauge spec"):
            tags = strings._KINDS if payload == "string spec" else gauge._FORMS
            assert (_backticked(kind), default) == (set(tags), "required")
            continue
        row_kind, row_default = tables[payload][key]
        if isinstance(row_kind, dict):
            assert kind == "object"
        else:
            assert kind == names.get(row_kind, "%s spec" % key), (payload, key)
        assert default.startswith("required") == (row_default is spec.REQUIRED)


# the private names a module may import from a sibling, (from, into, name): why
_PRIVATE_IMPORTS = {
    ("gauge", "strings", "_shaped"): "one array-shape contract for every method",
    ("strings", "karamata", "_em_tail_sum"): "one Euler-Maclaurin tail",
    ("strings", "karamata", "_panel_integral"): "one Gauss-Legendre integrator",
    ("spectral", "cli", "_positive"): "zeta's --L takes the check of lambda",
    ("spectral", "harness", "_lambdas"): "a config checks its lambda grid as the probe does",
}


def test_private_imports_between_modules_are_exactly_the_allowlist():
    # the power-log factor, among others, stays inside gauge
    package = Path(fractal_strings.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((node.module, path.stem, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found == set(_PRIVATE_IMPORTS)
