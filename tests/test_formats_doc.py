"""docs/formats.md names every key a subcommand writes: each CSV column and metadata
key, each JSON report key and each manifest key appears in backticks in the section
that documents its file.  And every key it documents for a file is written: the items
of the `Metadata:` and `Columns:` lists of a CSV, and the first column of the key
table of a JSON file.  The manifest's `parameters` and `tolerances` hold the keys its
list for the subcommand names, and that list is the subcommand's `Param` table."""

import json
import re
from pathlib import Path

import pytest

from shearlab._csvio import read_csv
from shearlab.cli import COMMANDS, main
from test_perfbench_hooks import CLI_CALLS

DOC = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

# the files whose section is another subcommand's, as the document says: localize's
# profile CSV is "as the `profile` CSV", its report has "those of the `residual` report"
SECTION_OF = {"localize_profile.csv": ("profile", "<prefix>.csv"),
              "localize_residual.json": ("residual", "<prefix>.json")}
# a key is a name: a list's prose may backtick a range such as `[0, tau_end]` or a flag
KEY = re.compile(r"[A-Za-z_][\w.<>\[\]]*")


def _sections() -> dict[str, set[str]]:
    """The backticked spans of each section, by the first word of its heading:
    the subcommand's name, or ``Manifest``."""
    sections, name = {}, None
    for line in DOC.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("#"):
            name = re.match(r"#+ `?([^`\s]+)", line).group(1)
        sections[name] = sections.get(name, "") + line
    return {name: {" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)}
            for name, text in sections.items()}


def _list_items(text: str) -> list[str]:
    """The keys of a list that starts ``text``: its backticked names up to the end of
    its sentence, outside parentheses, which hold values and remarks."""
    items, depth, tick, start = [], 0, False, 0
    for i, ch in enumerate(text):
        if ch == "`":
            if tick and depth == 0:
                items.append(text[start:i])
            tick, start = not tick, i + 1
        elif tick:
            continue
        elif ch in "()":
            depth += 1 if ch == "(" else -1
        elif ch == "." and depth == 0 and text[i + 1:i + 2] in ("", " "):
            break
    return [k for k in items if KEY.fullmatch(k)]


def _documented() -> dict[tuple[str, str], set[str]]:
    """The keys documented for each file, by section and the file's name in it
    (``<prefix>_report.json``).  A key table belongs to the JSON file its heading
    names; a list to the file of the bullet it is in, else to the heading's CSV."""
    keys, texts, section, names, unit = {}, {}, None, {}, None
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            section = re.match(r"#+ `?([^`\s]+)", line).group(1)
            names = {Path(n).suffix: n for n in re.findall(r"`(<prefix>[^`]*)`", line)}
            unit = names.get(".csv")
            continue
        bullet = re.match(r"\* `(<prefix>[^`]*)`", line)
        if bullet:
            unit = bullet.group(1)
        if line.startswith("| `") and ".json" in names:
            first = line.split(" | ")[0]
            keys.setdefault((section, names[".json"]), set()).update(
                re.findall(r"`([^`]+)`", first))
        elif unit:
            texts[section, unit] = texts.get((section, unit), "") + " " + line
    for where, text in texts.items():
        text = " ".join(text.split())
        for label in re.finditer(r"\b(?:metadata|columns):? ", text, re.IGNORECASE):
            keys.setdefault(where, set()).update(_list_items(text[label.end():]))
    return keys


def _doc_file(argv, path: Path) -> tuple[str, str]:
    """The section that documents a written file, and the file's name there."""
    if path.name.endswith(".manifest.json"):
        return "Manifest", "<prefix>.manifest.json"
    prefix = argv[0].replace("-", "_")
    return SECTION_OF.get(path.name, (argv[0], "<prefix>" + path.name[len(prefix):]))


def _json_keys(value, path=""):
    """The key paths of a JSON value: ``endpoints.dU0`` in an object, ``levels[].nx`` in
    an array of objects; an object-valued key is named by its children's paths."""
    if isinstance(value, dict):
        return [k for key, item in value.items()
                for k in _json_keys(item, f"{path}.{key}" if path else key)]
    items = value if isinstance(value, list) else []
    return [path, *(k for item in items if isinstance(item, dict)
                    for k in _json_keys(item, f"{path}[]"))]


def _written_keys(path: Path) -> list[str]:
    if path.suffix == ".csv":
        meta, data = read_csv(path)
        keys = [*meta, *data]
    elif path.name.endswith(".manifest.json"):
        keys = list(json.loads(path.read_text()))   # parameters are keyed by config key
    else:
        keys = _json_keys(json.loads(path.read_text()))
    # energy's slow_manifold_tau_1, _2, ... are documented as slow_manifold_tau_<j>
    return sorted({re.sub(r"^(slow_manifold_tau_)\d+$", r"\1<j>", k) for k in keys})


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_CALLS],
                         ids=[argv[0] for argv, _ in CLI_CALLS])
def test_every_written_key_is_documented(tmp_path, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    documented = _sections()
    files = sorted(tmp_path.iterdir())
    assert len(files) > 1
    for path in files:
        section, _ = _doc_file(argv, path)
        missing = [k for k in _written_keys(path) if k not in documented[section]]
        assert not missing, f"{path.name}: keys not in the {section} section: {missing}"


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_CALLS],
                         ids=[argv[0] for argv, _ in CLI_CALLS])
def test_every_documented_key_is_written(tmp_path, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    documented = _documented()
    for path in sorted(tmp_path.iterdir()):
        keys = documented.get(_doc_file(argv, path))
        assert keys, f"{path.name}: no key documented for it"
        absent = sorted(keys - set(_written_keys(path)))
        assert not absent, f"{path.name}: documented keys not written: {absent}"


def _parameter_keys() -> dict[str, list[str]]:
    """The keys the Manifest section lists for each subcommand's ``parameters``, by its
    bullet ``* `name`: `key`, ....``."""
    text = DOC.read_text(encoding="utf-8")
    section = text[text.index("## Manifest"):]
    section = section[:section.index("\n## ")]
    return {m.group(1): re.findall(r"`([^`]+)`", m.group(2))
            for m in re.finditer(r"^\* `([a-z-]+)`: (.*)\.$", section, re.MULTILINE)}


def test_the_parameter_keys_listed_are_each_subcommands_param_table():
    assert _parameter_keys() == {name: [prm.key for prm in params]
                                 for name, (_, params, _) in COMMANDS.items()}


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_CALLS],
                         ids=[argv[0] for argv, _ in CLI_CALLS])
def test_manifest_parameters_and_tolerances_are_the_keys_listed(tmp_path, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads(next(tmp_path.glob("*.manifest.json")).read_text())
    listed = _parameter_keys()[argv[0]]
    assert sorted(manifest["parameters"]) == sorted(listed)
    assert sorted(manifest["tolerances"]) == sorted(
        k for k in listed if k in ("eps", "tol", "rtol", "atol"))
