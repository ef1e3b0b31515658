"""Every config key gradleaf reads is one a reference config sets.

This is the config-surface counterpart of ``test_parameters_have_callers.py``.
A key that no file in ``configs/`` sets is a knob no run turns, and the
code behind it runs only in tests.  A key the run does not read must fail
loudly instead of being ignored, or a config could believe it set what the
run derives.

The scan reads ``problem_from_dict`` with ``ast`` and collects the keys it
consumes: the key argument of each ``_config_value`` call and of each
``raw.pop``.
"""

import ast
import json
from pathlib import Path

import pytest

from gradleaf.cli import EXIT_CONFIG, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def read_keys():
    """The string keys ``problem_from_dict`` consumes from its config."""
    tree = ast.parse((ROOT / "src" / "gradleaf" / "problems.py").read_text())
    [func] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "problem_from_dict"]
    keys = set()
    for call in ast.walk(func):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == "_config_value":
            key = call.args[1]
        elif (isinstance(f, ast.Attribute) and f.attr == "pop"
              and isinstance(f.value, ast.Name) and f.value.id == "raw"):
            key = call.args[0]
        else:
            continue
        assert isinstance(key, ast.Constant), ast.unparse(call)
        keys.add(key.value)
    return keys


def test_every_read_key_is_set_by_a_config():
    keys = read_keys()
    # the scan sees the required keys, so an empty scan cannot pass
    assert {"dimension", "objective", "critical_point"} <= keys
    configs = sorted(CONFIGS.glob("*.json"))
    assert configs
    set_keys = set()
    for path in configs:
        set_keys |= set(json.loads(path.read_text()))
    assert keys - set_keys == set(), "keys no config sets"
    assert set_keys - keys == set(), "keys a config sets that no run reads"


@pytest.mark.parametrize("key, value", [
    ("ladder_overrides", {"lambda": 0.5}),
    ("trust_radus", 1.0),
    ("c21", False),
])
def test_unread_or_false_key_exits_config(tmp_path, key, value):
    config = json.loads((CONFIGS / "p2_quartic.json").read_text())
    config[key] = value
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["spectral", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "config"
    assert repr(key) in record["message"]
