"""docs/formats.md names every key a subcommand writes: each CSV column and metadata
key, each JSON report key and each manifest key appears in backticks in the section
that documents its file."""

import json
import re
from pathlib import Path

import pytest

from shearlab._csvio import read_csv
from shearlab.cli import main
from test_perfbench_hooks import CLI_CALLS

DOC = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

# the files whose section is another subcommand's, as the document says: localize's
# profile CSV is "as the `profile` CSV", its report has "those of the `residual` report"
SECTION_OF = {"localize_profile.csv": "profile", "localize_residual.json": "residual"}


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
        section = "Manifest" if path.name.endswith(".manifest.json") else \
            SECTION_OF.get(path.name, argv[0])
        missing = [k for k in _written_keys(path) if k not in documented[section]]
        assert not missing, f"{path.name}: keys not in the {section} section: {missing}"
