"""End-to-end tests of the JSON-config command line.

Every test drives besovlab.cli.main in process (fast, same interpreter);
one test goes through ``python -m besovlab`` to cover the module entry.
"""

import csv
import dataclasses
import inspect
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import besovlab
from besovlab import cli, config, operators, verify
from besovlab.cli import _check_calls, main
from besovlab.config import as_exponent, load_config, make_config
from besovlab.errors import ConfigInvalid
from besovlab.verify import CHECKS, FAMILY_TAGS


def write_config(tmp_path, name="cfg.json", **overrides):
    base = {"domain": {"kind": "interval", "a": 0.0, "b": 1.0}, "h": [0.0625]}
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_minimal_exits_zero(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        checks=[{"name": "resolution_identity"}],
        norms=[{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0}],
        out=str(out),
    )
    assert main(["run", "--config", str(cfg)]) == 0
    for name in ("norms.csv", "verify.csv", "profiles.csv", "manifest.json"):
        assert (out / name).exists()
    rows = read_rows(out / "verify.csv")
    assert len(rows) == 1
    assert rows[0]["check"] == "resolution_identity"
    assert rows[0]["pass"] == "true"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["checks"] == {"resolution_identity": True}
    assert len(manifest["config_hash"]) == 64
    assert isinstance(manifest["peak_rss_kib"], int) and manifest["peak_rss_kib"] > 0


def test_unknown_key_exits_two_with_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, bogus=1, out=str(out))
    assert main(["run", "--config", str(cfg)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "bogus" in manifest["failure"]
    assert not (out / "norms.csv").exists()
    assert isinstance(manifest["peak_rss_kib"], int) and manifest["peak_rss_kib"] > 0


def test_unknown_check_parameter_exits_two(tmp_path):
    cfg = write_config(
        tmp_path,
        checks=[{"name": "bernstein", "nope": 3}],
        out=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(cfg)]) == 2


def test_malformed_json_exits_two_and_writes_manifest(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "m"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"].startswith("ConfigInvalid")


@pytest.mark.parametrize("out", ["", 3])
def test_rejected_out_key_puts_the_manifest_in_results(tmp_path, monkeypatch, out):
    # an out key that is no usable directory name falls back to ./results,
    # never to the working directory itself
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, out=out)
    assert main(["spectrum", "--config", str(cfg)]) == 2
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert manifest["failure"].startswith("ConfigInvalid: at out: ")
    assert not (tmp_path / "manifest.json").exists()


def _finite_only(name):
    raise ValueError(f"non-finite constant {name}")


@pytest.mark.parametrize(
    "text",
    [
        '{"domain": {"kind": "interval", "a": 0, "b": 1}, "h": [NaN]}',
        '{"domain": {"kind": "interval", "a": 0, "b": 1}, "h": [Infinity]}',
        '{"domain": {"kind": "ball", "center": [0, 0], "radius": Infinity}, "h": [0.25]}',
        '{"domain": {"kind": "interval", "a": 0, "b": 1}, "h": [0.0625], '
        '"checks": [{"name": "resolution_identity", "tol": NaN}]}',
        '{"domain": {"kind": "ball", "center": [1e308, 0], "radius": 1e308}, "h": [0.25]}',
    ],
    ids=["h-nan", "h-inf", "radius-inf", "tol-nan", "bbox-overflow"],
)
def test_nonfinite_numbers_exit_two(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_finite_only)
    assert manifest["status"] == "error"
    assert manifest["failure"].startswith("ConfigInvalid")


_INTERVAL = {"kind": "interval", "a": 0.0, "b": 1.0}


@pytest.mark.parametrize(
    "data",
    [
        {"domain": _INTERVAL, "h": [math.nan]},
        {"domain": _INTERVAL, "h": [0.0625],
         "checks": [{"name": "resolution_identity", "tol": math.nan}]},
        {"domain": _INTERVAL, "h": [0.0625],
         "norms": [{"kind": "besov", "s": -math.inf, "p": 2, "q": 2}]},
        {"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": math.inf}, "h": [0.25]},
    ],
    ids=["h-nan", "tol-nan", "norm-s-inf", "radius-inf"],
)
def test_make_config_rejects_nonfinite_floats(data):
    with pytest.raises(ConfigInvalid, match="non-finite"):
        make_config(data)


def test_norm_entry_missing_exponent_rejected(tmp_path):
    cfg = write_config(
        tmp_path, norms=[{"kind": "lorentz", "p": 2.0}], out=str(tmp_path / "o")
    )
    assert main(["norms", "--config", str(cfg)]) == 2


def test_equivalence_window_rejected_at_validation(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        h=[0.25],
        checks=[{"name": "equivalence_AV_A0", "s": 1.5}],
        out=str(out),
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    # rejected before any stage was built
    assert "stages" not in manifest["timings_ms"]
    assert "window" in manifest["failure"]


def test_equivalence_window_report_only_runs_vacuously(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        h=[0.25],
        checks=[{"name": "equivalence_AV_A0", "s": 1.5}],
        out=str(out),
    )
    assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
    rows = read_rows(out / "verify.csv")
    assert rows and all(r["pass"] == "true" for r in rows)


def test_equivalence_on_interval_rejected_even_report_only(tmp_path):
    cfg = write_config(
        tmp_path,
        checks=[{"name": "equivalence_AV_A0"}],
        out=str(tmp_path / "o"),
    )
    assert main(["verify", "--config", str(cfg), "--report-only"]) == 2


def test_failing_check_exit_one_and_report_only_zero(tmp_path):
    out1 = tmp_path / "a"
    cfg = write_config(
        tmp_path,
        h=[0.0625, 0.03125],
        checks=[{"name": "bernstein", "stability": 1.0}],
        out=str(out1),
    )
    assert main(["verify", "--config", str(cfg)]) == 1
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["status"] == "checks-failed"
    # verify.csv still records the failed rows
    assert any(r["pass"] == "false" for r in read_rows(out1 / "verify.csv"))

    assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["checks"] == {"bernstein": False}


def _rejected_before_any_grid(out: Path) -> str:
    """The failure of a run that exited 2 without building a stage."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "stages" not in manifest["timings_ms"]
    assert not (out / "cache").exists()
    return manifest["failure"]


@pytest.mark.parametrize("potential", ["foo(x)", "x +", "__import__('os')"])
def test_malformed_potential_rejected_before_any_grid(tmp_path, potential):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, potential=potential, out=str(out))
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert _rejected_before_any_grid(out).startswith("ConfigInvalid: at potential: ")


@pytest.mark.parametrize("t_grid", [[], [-0.5, 1.0]])
def test_bad_heat_t_grid_exits_two_with_failure(tmp_path, t_grid):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        checks=[{"name": "heat_gaussian", "t_grid": t_grid}],
        out=str(out),
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    failure = _rejected_before_any_grid(out)
    assert failure.startswith("ConfigInvalid: at checks/0/t_grid: InvalidCheckParameter")


@pytest.mark.parametrize(
    "entry, param",
    [
        ({"name": "duality", "p": "two"}, "p"),
        ({"name": "bernstein", "pairs": [[1]]}, "pairs"),
        ({"name": "subspace_characterization", "p": 0}, "p"),
    ],
)
def test_malformed_check_kwargs_exit_two_naming_the_parameter(tmp_path, entry, param):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, checks=[{"name": "resolution_identity"}, entry], out=str(out))
    assert main(["verify", "--config", str(cfg)]) == 2
    failure = _rejected_before_any_grid(out)
    assert re.match(rf"ConfigInvalid: at checks/1/{param}[/:]", failure), failure


def test_non_numeric_equivalence_index_rejected_at_validation(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        h=[0.25],
        checks=[{"name": "equivalence_AV_A0", "s": "half"}],
        out=str(out),
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    failure = _rejected_before_any_grid(out)
    assert failure.startswith("ConfigInvalid: at checks/0/s: ")


_DISK = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize(
    "domain, entry, prefix",
    [
        (_DISK, {"name": "duality", "p": 0.5}, "at checks/1/p: "),
        (_INTERVAL, {"name": "bernstein", "pairs": [[2, 1]]}, "at checks/1/pairs: InvalidExponent"),
        (_INTERVAL, {"name": "embeddings", "square_p": [2.5, 3]},
         "at checks/1/square_p: IndexConstraintViolated"),
        (_INTERVAL, {"name": "embeddings", "chain": [1, 2, 2, 0]},
         "at checks/1/chain: IndexConstraintViolated"),
        (_INTERVAL, {"name": "subspace_characterization", "s": 0.75},
         "at checks/1/s: IndexConstraintViolated"),
        (_INTERVAL, {"name": "lorentz_bernstein", "p0": 2, "p": 2},
         "at checks/1/p0: IndexConstraintViolated"),
        (_INTERVAL, {"name": "equivalence_AV_A0"}, "at checks/1: AssumptionViolated"),
        (_DISK, {"name": "equivalence_AV_A0", "p": 4}, "at checks/1/s: AssumptionViolated"),
    ],
    ids=["duality-p", "bernstein-r-above-p", "embeddings-square-p", "embeddings-chain-M",
         "subspace-s", "lorentz-p0", "equivalence-n1", "equivalence-window-from-p"],
)
def test_inadmissible_check_parameter_rejected_before_any_grid(tmp_path, domain, entry, prefix):
    # building the disk stages at h = 1/16 and 1/24 takes about a second of
    # eigensolves and writes 30 MB of cache; a rejection must come first
    out = tmp_path / "out"
    cfg = write_config(tmp_path, domain=domain, h=[1 / 16, 1 / 24], potential="0.25/r^2",
                       checks=[{"name": "resolution_identity"}, entry], out=str(out))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert _rejected_before_any_grid(out).startswith("ConfigInvalid: " + prefix)


def test_written_out_infinite_defaults_match_omitted_ones(tmp_path):
    # JSON spells the infinite defaults as "inf"; the check sees math.inf
    spelled = [
        {"name": "bernstein", "pairs": [[1, "inf"], [1, 2], [2, 2]]},
        {"name": "embeddings", "gain": [0.5, 0.5, 2, "inf", 1]},
        {"name": "equivalence_AV_A0", "radius": "inf"},
    ]
    tables = []
    for name, checks in (("spelled", spelled), ("omitted", [{"name": c["name"]} for c in spelled])):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.json", checks=checks, out=str(out),
                           domain={"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]},
                           h=[0.25, 0.2], potential="4*x - 1.2")  # V_- != 0: radius is read
        assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
        rows = read_rows(out / "verify.csv")
        tables.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in rows])
        manifest = json.loads((out / "manifest.json").read_text())
    assert tables[0] == tables[1] and len(tables[0]) > 10
    # the canonical config keeps the spelling it was given
    checks = load_config(tmp_path / "spelled.json").canonical()["checks"]
    assert checks[0]["pairs"][0] == [1, "inf"] and checks[2]["radius"] == "inf"
    assert manifest["config"]["checks"] == [{"name": c["name"]} for c in spelled]


def test_every_check_parameter_is_typed():
    # each keyword a check takes, bar the runner's, declares exactly one
    # value check beside its default, and the config table reads it there
    for name, fn in CHECKS.items():
        params = inspect.signature(fn, eval_str=True).parameters
        table, required = config._params(fn, supplied=("stages", "family"))
        assert set(table) == set(params) | {"stages", "family"} and required == (), name
        for key in set(table) - {"stages", "family"}:
            (check,) = params[key].annotation.__metadata__
            assert callable(check), (name, key)
            assert params[key].default is not inspect.Parameter.empty, (name, key)


@pytest.mark.parametrize("fn, skip", [
    (config.RunConfig, ()), (besovlab.interval, ()), (besovlab.box, ()), (besovlab.ball, ()),
    *[(fn, ("op", "sys", "f")) for fn in config.NORMS.values()]])
def test_every_config_key_is_typed(fn, skip):
    # root, domain and norm-request keys: one value check each, in the
    # signature of what they feed; a key without a default is required
    params = inspect.signature(fn, eval_str=True).parameters
    table, required = config._params(fn, skip=skip)
    assert set(table) == set(params) - set(skip)
    for key in table:
        (check,) = params[key].annotation.__metadata__
        assert callable(check), key
    assert required == tuple(k for k in table if params[k].default is inspect.Parameter.empty)


def test_readme_example_config_is_accepted(tmp_path, monkeypatch):
    # README's config schema example passes validation and every check's
    # pre-stage rules, with no grid built
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    monkeypatch.setattr(verify, "build_grid", None)
    path = tmp_path / "readme.json"
    path.write_text(block)
    cfg = load_config(path)
    calls = _check_calls(cfg, report_only=False)
    assert [name for name, _ in calls] == ["resolution_identity", "equivalence_AV_A0"]


def test_readme_defaults_are_the_run_config_defaults():
    # every "- **key** (default ...)" bullet of README's config schema names
    # a RunConfig field, and states that field's default as JSON
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = re.findall(r"^- \*\*(\w+)\*\* \(default `?(.*?)`?\)", readme, flags=re.M)
    fields = {f.name: f for f in dataclasses.fields(config.RunConfig)}
    assert len(bullets) == len(fields) - 2  # all but the required domain and h
    for key, stated in bullets:
        f = fields[key]
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        assert json.loads(stated) == json.loads(json.dumps(default)), key


def test_readme_lists_every_check_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (names,) = re.findall(r"Valid\s+names:(.*?)\.", readme, flags=re.S)
    assert re.findall(r"`(\w+)`", names) == sorted(CHECKS)


def test_admissibility_rules_default_to_their_checks_defaults(monkeypatch):
    # the rules declare no defaults: the runner hands each one its check's
    # signature defaults overlaid with the config's values
    for name, rules in verify.CHECK_RULES.items():
        for param in inspect.signature(rules).parameters.values():
            assert param.default is inspect.Parameter.empty, (name, param.name)
    seen = []
    monkeypatch.setattr(cli, "CHECK_RULES", {
        name: lambda name=name, **kwargs: seen.append((name, kwargs)) for name in CHECKS})
    entries = [{"name": name} for name in CHECKS] + [{"name": "duality", "p": 3, "q": 1.5}]
    cfg = make_config({"domain": _INTERVAL, "h": [0.25], "checks": entries})
    _check_calls(cfg, report_only=False)
    assert [name for name, _ in seen] == [entry["name"] for entry in entries]
    for (name, kwargs), entry in zip(seen, entries):
        params = inspect.signature(CHECKS[name]).parameters
        expected = {k: p.default for k, p in params.items() if p.default is not p.empty}
        expected.update(n=1, **{k: v for k, v in entry.items() if k != "name"})
        if "family" in params:
            expected["family"] = cfg.function_family()
        assert kwargs == expected, name


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-10.0, 10.0),
    st.sampled_from(["two", "inf", ""]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)


def _admissible(default):
    """Draws of a check parameter shaped like its default that pass its value
    check: a boolean, a number scaled up from the default (sign, >= 1, > 0
    and [0, 1] all keep), "inf" or a finite exponent for an infinite one, an
    array of numbers for t_grid's None, and the tuple shapes item by item
    (pairs: one to three of the default's pairs)."""
    if isinstance(default, bool):
        return st.booleans()
    if default is None:
        return st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4)
    if isinstance(default, tuple):
        if isinstance(default[0], tuple):
            item = st.sampled_from(default).flatmap(_admissible)
            return st.lists(item, min_size=1, max_size=len(default))
        return st.tuples(*map(_admissible, default)).map(list)
    if math.isinf(default):
        return st.sampled_from(["inf", 2, 4.0])
    if default == 0:
        return st.floats(-1.0, 1.0)
    return st.one_of(st.integers(1, 3), st.floats(1.0, 2.0)).map(lambda u: default * u)


@st.composite
def _check_entries(draw):
    name = draw(st.sampled_from(sorted(CHECKS)))
    params = inspect.signature(CHECKS[name]).parameters
    keys = draw(st.lists(st.sampled_from(sorted(set(params) - {"stages", "family"})),
                         max_size=3, unique=True))
    # one example in three that sets keys gives one of them a malformed draw
    bad = draw(st.sampled_from([*keys, *[None] * 2 * len(keys)])) if keys else None
    return {"name": name, **{k: draw(_VALUES if k == bad else _admissible(params[k].default))
                             for k in keys}}


@settings(max_examples=30, deadline=None)
@given(entry=_check_entries())
def test_exit_codes_total_over_check_kwargs(entry):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = write_config(Path(tmp), checks=[entry], out=str(out))
        code = main(["verify", "--config", str(cfg)])
        manifest = json.loads((out / "manifest.json").read_text())
        cache_made = (out / "cache").exists()
    assert code in (0, 1, 2, 3)
    if manifest["status"] == "error":
        assert manifest["failure"] is not None
        assert code in (2, 3)
    assert (code == 1) == (manifest["status"] == "checks-failed")
    if code == 2:
        # every check parameter is judged before any grid
        assert "stages" not in manifest["timings_ms"] and not cache_made
        assert manifest["failure"].startswith("ConfigInvalid: at checks/0"), manifest["failure"]


_EXTENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -1.0, 1e-7, math.nan, math.inf, -math.inf]),
)
_SPACINGS = st.one_of(
    st.floats(0.1, 1.0),
    st.sampled_from([0.0, -0.25, 1e-7, math.nan, math.inf]),
)


@st.composite
def _domains(draw):
    kind = draw(st.sampled_from(["interval", "box", "ball"]))
    if kind == "interval":
        return {"kind": kind, "a": draw(_EXTENTS), "b": draw(_EXTENTS)}
    coords = st.lists(_EXTENTS, min_size=1, max_size=3)
    if kind == "box":
        return {"kind": kind, "lo": draw(coords), "hi": draw(coords)}
    return {"kind": kind, "center": draw(coords), "radius": draw(_EXTENTS)}


@settings(max_examples=40, deadline=None)
@given(domain=_domains(), hs=st.lists(_SPACINGS, min_size=1, max_size=3))
def test_exit_codes_total_over_domain_and_spacing(domain, hs):
    # json.dumps writes NaN and Infinity literals for the non-finite draws
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"domain": domain, "h": hs, "dense_cap": 256}))
        code = main(["spectrum", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_finite_only)
    assert code in (0, 2, 3)
    if manifest["status"] == "error":
        assert manifest["failure"] is not None


# (valid, malformed) draws per norm-entry key
_NORM_VALUES = {
    "s": (st.floats(-3.0, 3.0), st.sampled_from([math.nan, math.inf, "half"])),
    "p": (st.floats(1.0, 8.0), st.sampled_from([0.5, -1, math.nan, math.inf, "inf"])),
    "q": (st.one_of(st.floats(1.0, 8.0), st.just("inf")), st.sampled_from([0.5, math.nan, "two"])),
    "homogeneous": (st.booleans(), st.just("yes")),
    "variant": (st.sampled_from(["plain", "shifted"]), st.just("other")),
}
_NORM_KINDS = {"besov": ("s", "p", "q", "homogeneous"), "sobolev": ("s", "variant"),
               "lorentz": ("p", "q")}
_POTENTIALS = st.sampled_from([None, "4*x", "-40", "0.25/r^2", "-0.5/r", "1/(x+1)"])
_BAD_POTENTIALS = st.one_of(
    st.sampled_from([
        "1/0", "0^-1", "(-8)^(1/3)", "9^9^9", "1e999", "y", "x+", "",
        "(" * 400 + "x" + ")" * 400, "-" * 2000 + "x",
    ]),
    st.text(alphabet="xr0129.+-*/^() e", max_size=10),
)


@st.composite
def _norm_entries(draw, malformed=False):
    kind = draw(st.sampled_from(sorted(_NORM_KINDS)))
    keys = _NORM_KINDS[kind]
    entry = {"kind": kind, **{k: draw(_NORM_VALUES[k][0]) for k in keys}}
    if malformed:
        key = draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["value", "missing", "kind"]))
        if how == "value":
            entry[key] = draw(_NORM_VALUES[key][1])
        elif how == "missing":
            del entry[key]
        else:
            entry["kind"] = "bogus"
    return entry


@st.composite
def _norms_configs(draw):
    """A norms config whose entries, family and potential are valid, with at
    most one of them (drawn) made malformed."""
    defect = draw(st.sampled_from([None, "norm", "family", "potential"]))
    norms = draw(st.lists(_norm_entries(), min_size=1, max_size=3))
    if defect == "norm":
        norms.insert(draw(st.integers(0, len(norms))), draw(_norm_entries(malformed=True)))
    family = {"tag": draw(st.sampled_from(FAMILY_TAGS)), "count": draw(st.integers(1, 4))}
    if defect == "family":
        key = draw(st.sampled_from(sorted(family)))
        family[key] = draw(st.sampled_from(["chirp", 0, -1, 4097, 2.5]))
    potential = draw(_BAD_POTENTIALS if defect == "potential" else _POTENTIALS)
    return {"norms": norms, "family": family, "potential": potential,
            "dense_cap": draw(st.integers(1, 256))}


@settings(max_examples=40, deadline=None)
@given(config=_norms_configs())
def test_exit_codes_total_over_norms_family_and_potential(config):
    # json.dumps writes NaN and Infinity literals for the non-finite draws
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = write_config(Path(tmp), h=[0.125], out=str(out), **config)
        code = main(["norms", "--config", str(cfg)])
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_finite_only)
    assert code in (0, 2, 3)
    if manifest["status"] == "error":
        assert manifest["failure"] is not None
    assert (code == 0) == (manifest["status"] == "ok")


def test_norms_transform_once_per_request_and_stage(tmp_path, transforms):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        h=[0.0625, 0.03125],
        norms=[
            {"kind": "besov", "s": 0.5, "p": 2, "q": 2},
            {"kind": "besov", "s": -0.5, "p": 4, "q": 1, "homogeneous": True},
            {"kind": "sobolev", "s": 1, "variant": "shifted"},
            {"kind": "lorentz", "p": 2, "q": "inf"},
        ],
        family={"tag": "random-eigenmix", "count": 5},
        out=str(out),
    )
    assert main(["norms", "--config", str(cfg)]) == 0
    assert len(transforms) == 3 * 2
    rows = read_rows(out / "norms.csv")
    # stage-major, then request, then function
    assert [(r["h"], r["kind"], r["func"]) for r in rows[:6]] == [
        ("0.0625", "besov", str(i)) for i in range(5)
    ] + [("0.0625", "besov", "0")]
    assert len(rows) == 2 * 4 * 5


def test_dense_cap_exits_three(tmp_path):
    # on a cold and on a primed cache: a cached entry never lifts the cap
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out=str(out))
    for _ in range(2):
        assert main(["run", "--config", str(cfg), "--dense-cap", "4"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "DenseCapExceeded" in manifest["failure"]
        assert main(["spectrum", "--config", str(cfg)]) == 0


def test_spectrum_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, h=[0.125, 0.0625], out=str(out))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 7 + 15
    for row in rows:
        h, k, lam = float(row["h"]), int(row["k"]), float(row["lam"])
        exact = 4.0 / h**2 * math.sin(k * math.pi * h / 2.0) ** 2
        assert lam == pytest.approx(exact, rel=1e-10)


def test_profiles_partition_sums_to_one(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out=str(out))
    assert main(["profiles", "--config", str(cfg)]) == 0
    rows = read_rows(out / "profiles.csv")
    assert float(rows[0]["lam"]) == 0.0
    assert float(rows[0]["psi"]) == 1.0
    for row in rows:
        assert abs(float(row["sum"]) - 1.0) <= 1e-14


def test_bench_errors_decay_in_degree(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, domain={"kind": "interval", "a": 0.0, "b": 4.0}, out=str(out)
    )
    assert main(["bench", "--config", str(cfg)]) == 0
    ladders = {}
    for row in read_rows(out / "bench.csv"):
        ladders.setdefault(row["symbol"], []).append(
            (int(row["degree"]), float(row["rel_err"]))
        )
    assert len(ladders) == 5
    for sym, pts in ladders.items():
        pts.sort()
        errs = [e for _, e in pts]
        assert all(np.isfinite(errs))
        # monotone trend: the top of the ladder beats the bottom cleanly
        assert errs[-1] <= max(errs[0] * 1e-3, 1e-10), sym
        for row in read_rows(out / "bench.csv"):
            assert float(row["dense_ms"]) >= 0.0
            assert float(row["cheb_ms"]) >= 0.0


def test_bench_times_no_matrix_build(tmp_path, monkeypatch):
    # the sparse matrix is built before the first timed Chebyshev apply, so
    # a slow build shows in no cheb_ms
    import scipy.sparse

    builds, csr_matrix, delay = [], scipy.sparse.csr_matrix, 0.25

    def slow_csr_matrix(*args, **kwargs):
        builds.append(time.sleep(delay))
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", slow_csr_matrix)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, h=[0.125], out=str(out))
    assert main(["bench", "--config", str(cfg)]) == 0
    rows = read_rows(out / "bench.csv")
    assert len(builds) == 1
    assert float(rows[0]["cheb_ms"]) < delay * 1e3


def test_reruns_are_byte_identical_modulo_wall_ms(tmp_path):
    spec = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
        "h": [0.0625, 0.03125],
        "potential": "-10*x",
        "norms": [
            {"kind": "besov", "s": 1.0, "p": 2.0, "q": 2.0, "homogeneous": True},
            {"kind": "sobolev", "s": 0.5, "variant": "shifted"},
            {"kind": "lorentz", "p": 2.0, "q": "inf"},
        ],
        "checks": [{"name": "resolution_identity"}, {"name": "bernstein"}],
        "family": {"tag": "bump", "count": 4},
        "seed": 9,
    }
    outs = []
    for tag in ("one", "two"):
        cfg = write_config(tmp_path, name=f"{tag}.json", **spec, out=str(tmp_path / tag))
        assert main(["run", "--config", str(cfg)]) == 0
        outs.append(tmp_path / tag)

    def rows_without_wall(path):
        with open(path) as fh:
            raw = list(csv.reader(fh))
        drop = [i for i, c in enumerate(raw[0]) if c == "wall_ms"]
        return [[c for i, c in enumerate(r) if i not in drop] for r in raw]

    for name in ("norms.csv", "verify.csv", "profiles.csv"):
        assert rows_without_wall(outs[0] / name) == rows_without_wall(outs[1] / name)


def test_seed_flag_overrides_config(tmp_path):
    spec = {
        "norms": [{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0}],
        "family": {"tag": "random-eigenmix", "count": 2},
    }
    cfg = write_config(tmp_path, **spec, out=str(tmp_path / "a"))
    assert main(["norms", "--config", str(cfg)]) == 0
    cfg2 = write_config(tmp_path, name="b.json", **spec, out=str(tmp_path / "b"))
    assert main(["norms", "--config", str(cfg2), "--seed", "123"]) == 0
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["seed"] == 0 and mb["seed"] == 123
    assert ma["config_hash"] != mb["config_hash"]
    va = [r["value"] for r in read_rows(tmp_path / "a" / "norms.csv")]
    vb = [r["value"] for r in read_rows(tmp_path / "b" / "norms.csv")]
    assert va != vb


@pytest.mark.parametrize("flag, value, key", [("--seed", str(2**64), "seed"),
                                              ("--seed", "-1", "seed"),
                                              ("--dense-cap", "0", "dense_cap")])
def test_out_of_range_flag_rejected_by_the_config_table(tmp_path, flag, value, key):
    # the overridden config is judged like a file, so the manifest is written
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out=str(out))
    assert main(["spectrum", "--config", str(cfg), flag, value]) == 2
    assert _rejected_before_any_grid(out).startswith(f"ConfigInvalid: at {key}: ")


def test_kernels_written_on_request(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, kernels=True, out=str(out))
    assert main(["run", "--config", str(cfg)]) == 0
    names = sorted(p.name for p in (out / "kernels").glob("*.npy"))
    assert "psi.npy" in names and "heat.npy" in names
    assert any(n.startswith("phi_") for n in names)
    for name in names:
        arr = np.load(out / "kernels" / name)
        assert arr.shape == (15, 15)
        assert np.all(np.isfinite(arr))


def test_operator_cache_reused(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, potential="-5", out=str(out))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    cache = sorted((out / "cache").glob("*.bin"))
    # A_V's eigendata and A_0's bounds: spectrum never reads A_0's eigendata
    assert [p.name[:4] for p in cache] == ["boun", "eig-"]
    stamps = [p.stat().st_mtime_ns for p in cache]
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert [p.stat().st_mtime_ns for p in sorted((out / "cache").glob("*.bin"))] == stamps


def _without_wall_ms(path):
    rows = [r for r in csv.reader(path.read_text().splitlines())]
    col = rows[0].index("wall_ms")
    return [r[:col] + r[col + 1:] for r in rows]


def _entry(cache, kind, op):
    """The path of the cache entry holding ``kind`` of ``op``'s matrix."""
    return cache / f"{kind}-{operators._cache_key(kind, op).hex()[:16]}.bin"


def _disk_operator(h, potential=None):
    """A_0, or A_V with a constant potential, of the unit disk at spacing h,
    as _equivalence_config builds them."""
    grid = besovlab.build_grid(besovlab.ball([0.0, 0.0], 1.0), h)
    if potential is None:
        return besovlab.assemble_laplacian(grid)
    return besovlab.assemble_schrodinger(grid, np.full(grid.num_nodes, potential))


def _equivalence_config(tmp_path, out, h=(0.25, 0.125)):
    """A disk with a potential whose only check reads A_0."""
    return write_config(
        tmp_path,
        name=f"{out}.json",
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        h=list(h),
        potential="2",
        norms=[{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0}],
        checks=[{"name": "equivalence_AV_A0"}],
        out=str(tmp_path / out),
    )


def test_free_operator_solved_and_cached_on_first_use(tmp_path, eigensolves):
    cfg, cache = _equivalence_config(tmp_path, "out"), tmp_path / "out" / "cache"
    assert main(["norms", "--config", str(cfg)]) == 0
    assert eigensolves == [False, False]  # A_V per stage
    assert sorted(p.name[:4] for p in cache.glob("*.bin")) == ["boun", "boun", "eig-", "eig-"]
    norms = (tmp_path / "out" / "norms.csv").read_bytes()

    verifies = []
    for solves in ([True, True], []):  # A_0 per stage, then none
        del eigensolves[:]
        assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
        assert eigensolves == solves
        assert all(_entry(cache, "eig", _disk_operator(h)).exists() for h in (0.25, 0.125))
        verifies.append(_without_wall_ms(tmp_path / "out" / "verify.csv"))

    fresh = _equivalence_config(tmp_path, "fresh")
    assert main(["norms", "--config", str(fresh)]) == 0
    assert (tmp_path / "fresh" / "norms.csv").read_bytes() == norms
    shutil.rmtree(tmp_path / "fresh" / "cache")
    assert main(["verify", "--config", str(fresh), "--report-only"]) == 0
    assert verifies == [_without_wall_ms(tmp_path / "fresh" / "verify.csv")] * 2


def test_damaged_free_operator_cache_is_rebuilt(tmp_path):
    cfg = _equivalence_config(tmp_path, "out", h=[0.25])
    assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
    expected = _without_wall_ms(tmp_path / "out" / "verify.csv")
    entry = _entry(tmp_path / "out" / "cache", "eig", _disk_operator(0.25))
    raw = entry.read_bytes()
    entry.write_bytes(raw[: len(raw) // 2])
    assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
    assert _without_wall_ms(tmp_path / "out" / "verify.csv") == expected
    assert entry.read_bytes() == raw


def test_cache_entry_names_change_with_package_version(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, potential="-5", out=str(out))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    before = {p.name for p in (out / "cache").glob("*.bin")}
    monkeypatch.setattr(operators, "__version__", operators.__version__ + ".post1")
    assert main(["spectrum", "--config", str(cfg)]) == 0
    after = {p.name for p in (out / "cache").glob("*.bin")} - before
    assert len(before) == len(after) == 2


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert besovlab.__version__ == version


# an entry's format version sits at byte 8, its key at bytes 12-44 and its
# values from byte 52 on
_DAMAGE = {
    "truncate": lambda raw: raw[: len(raw) // 2],
    "bad-magic": lambda raw: b"NOTANOP!" + raw[8:],
    "version": lambda raw: raw[:8] + struct.pack("<I", 3) + raw[12:],
    "key": lambda raw: raw[:12] + bytes([raw[12] ^ 1]) + raw[13:],
    "eigval-nan": lambda raw: raw[:52] + struct.pack("<d", math.nan) + raw[60:],
    # the free Laplacian's extremes are the last 16 bytes of its bounds entry
    "bounds-nan": lambda raw: raw[:-16] + struct.pack("<dd", math.nan, 1e3),
    "bounds-zero": lambda raw: raw[:-16] + struct.pack("<dd", 0.0, 1e3),
    "bounds-reversed": lambda raw: raw[:-16] + raw[-8:] + raw[-16:-8],
    # the eigenvector block, mapped rather than read, is still size-checked
    "eigvecs-cut": lambda raw: raw[:-24],
}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_damaged_operator_cache_is_rebuilt(tmp_path, capsys, damage):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, potential="-5", out=str(out))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    expected = (out / "spectrum.csv").read_bytes()
    kind = "bounds" if damage.startswith("bounds") else "eig"
    (entry,) = (out / "cache").glob(f"{kind}-*.bin")
    raw = entry.read_bytes()
    entry.write_bytes(_DAMAGE[damage](raw))
    capsys.readouterr()
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert "warning: rebuilding unreadable operator cache" in capsys.readouterr().err
    assert (out / "spectrum.csv").read_bytes() == expected
    assert entry.read_bytes() == raw
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


def _subprocess_env():
    """The environment with this besovlab first on the import path."""
    src = str(Path(besovlab.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _without_columns(path, *names):
    rows = [r for r in csv.reader(path.read_text().splitlines())]
    keep = [i for i, c in enumerate(rows[0]) if c not in names]
    return [[r[i] for i in keep] for r in rows]


def test_cut_eigenvector_block_rebuilds_before_bench(tmp_path):
    # a mapped page past the end of a cut-short file would kill the process
    # with SIGBUS on first touch, so the size check must come before the map
    out = tmp_path / "out"
    cfg = write_config(tmp_path, h=[1 / 64], potential="4*x", out=str(out))
    cmd = [sys.executable, "-m", "besovlab", "bench", "--config", str(cfg)]
    first = subprocess.run(cmd, capture_output=True, text=True, env=_subprocess_env())
    assert first.returncode == 0, first.stderr
    expected = _without_columns(out / "bench.csv", "dense_ms", "cheb_ms")
    (entry,) = (out / "cache").glob("eig-*.bin")
    raw = entry.read_bytes()
    entry.write_bytes(raw[:-8 * 63 * 8])
    second = subprocess.run(cmd, capture_output=True, text=True, env=_subprocess_env())
    assert second.returncode == 0, second.stderr
    assert "warning: rebuilding unreadable operator cache" in second.stderr
    assert _without_columns(out / "bench.csv", "dense_ms", "cheb_ms") == expected
    assert entry.read_bytes() == raw
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


def test_free_operator_entry_on_another_grid_is_rebuilt(tmp_path, capsys):
    # copied over A_0's entry on the coarse grid: A_0's entry of the finer
    # grid, then A_V's entry of the same grid (same size, another matrix);
    # the key each entry holds tells them apart
    cfg = _equivalence_config(tmp_path, "out")
    assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
    expected = _without_wall_ms(tmp_path / "out" / "verify.csv")
    cache = tmp_path / "out" / "cache"
    coarse, fine = (_entry(cache, "eig", _disk_operator(h)) for h in (0.25, 0.125))
    raw = coarse.read_bytes()
    for other in (fine, _entry(cache, "eig", _disk_operator(0.25, 2.0))):
        shutil.copyfile(other, coarse)
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg), "--report-only"]) == 0
        assert (f"warning: rebuilding unreadable operator cache {coarse.name}"
                in capsys.readouterr().err)
        assert _without_wall_ms(tmp_path / "out" / "verify.csv") == expected
        assert coarse.read_bytes() == raw


_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in {roots!r})))
"""


def _loaded_after(body, cwd, roots=("scipy", "jsonschema", "mpmath")):
    """Modules under ``roots`` that a fresh interpreter holds after ``body``."""
    code = _LOADED.format(body=body, roots=roots)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _main_calls(cfg, *commands):
    return "\n".join(["from besovlab.cli import main"]
                     + [f"assert main([{c!r}, '--config', {str(cfg)!r}]) == 0" for c in commands])


def test_warm_commands_import_no_heavy_scipy_submodule(tmp_path):
    # a warm spectrum or norms needs numpy and the cache file only, also for
    # the boundary-layer family's hop distances; the bare scipy package is
    # imported for the manifest's version record
    out = tmp_path / "out"
    base = dict(
        domain={"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        h=[0.25],
        potential="-0.5/r",
        norms=[
            {"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0},
            {"kind": "sobolev", "s": 1.0},
            {"kind": "lorentz", "p": 2.0, "q": "inf"},
        ],
        out=str(out),
    )
    cfg = write_config(tmp_path, **base)
    layer = write_config(tmp_path, "layer.json", family={"tag": "boundary-layer"}, **base)
    assert main(["spectrum", "--config", str(cfg)]) == 0  # primes the cache
    assert _loaded_after("import besovlab", tmp_path) == set()
    floor = _loaded_after("import numpy, scipy", tmp_path)
    for config_path, command in ((cfg, "spectrum"), (cfg, "norms"), (layer, "norms")):
        assert _loaded_after(_main_calls(config_path, command), tmp_path) <= floor
    assert {row["family"] for row in read_rows(out / "norms.csv")} == {"boundary-layer"}
    assert len(read_rows(out / "norms.csv")) == 3 * 8
    # bench builds the scipy matrix before its Chebyshev ladder
    bench = _loaded_after(_main_calls(cfg, "bench"), tmp_path)
    assert "scipy.sparse" in bench
    assert bench <= _loaded_after("import numpy, scipy.sparse", tmp_path)


def test_fractional_lorentz_loads_no_special_functions(tmp_path):
    cfg = write_config(tmp_path, norms=[{"kind": "lorentz", "p": 2.0, "q": 2.5}],
                       out=str(tmp_path / "out"))
    assert not {"scipy.special", "mpmath"} & _loaded_after(_main_calls(cfg, "norms"), tmp_path)


def test_heat_gaussian_loads_no_scipy_spatial(tmp_path):
    cfg = write_config(tmp_path, domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                       h=[0.25], potential="2", checks=[{"name": "heat_gaussian"}],
                       out=str(tmp_path / "out"))
    loaded = _loaded_after(_main_calls(cfg, "verify"), tmp_path, roots=("scipy",))
    assert loaded <= _loaded_after("import numpy, scipy", tmp_path, roots=("scipy",))


def test_cold_commands_import_no_scipy_submodule(tmp_path):
    # a cold stage densifies the CSR arrays and finds A_0's bottom
    # eigenvalue by Lanczos, both in numpy
    floor = _loaded_after("import numpy, scipy", tmp_path)
    norms = write_config(
        tmp_path, name="norms.json",
        domain={"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        h=[0.25], potential="-0.5/r",
        norms=[{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0},
               {"kind": "besov", "s": -0.5, "p": 4.0, "q": 1.0, "homogeneous": True},
               {"kind": "sobolev", "s": 1.0, "variant": "shifted"},
               {"kind": "lorentz", "p": 2.0, "q": "inf"}],
        out=str(tmp_path / "norms"),
    )
    assert _loaded_after(_main_calls(norms, "norms"), tmp_path) <= floor
    checks = ["resolution_identity", "embeddings", "equivalence_AV_A0", "duality",
              "bernstein", "heat_gaussian"]
    verify = write_config(
        tmp_path, name="verify.json",
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        h=[1 / 4, 1 / 6], potential="0.25/r^2", checks=[{"name": c} for c in checks],
        family={"tag": "random-eigenmix", "count": 2}, out=str(tmp_path / "verify"),
    )
    body = ("from besovlab.cli import main\n"
            f"assert main(['verify', '--config', {str(verify)!r}, '--report-only']) == 0")
    assert _loaded_after(body, tmp_path) <= floor
    rows = read_rows(tmp_path / "verify" / "verify.csv")
    assert {r["check"].split("[")[0] for r in rows} == set(checks)


def test_loaded_entry_maps_eigenvectors_read_only(tmp_path):
    spec = besovlab.ball([0.0, 0.0], 1.0)
    cold = besovlab.build_stage(spec, 0.25, potential="-0.5/r", cache_dir=tmp_path)
    warm = besovlab.build_stage(spec, 0.25, potential="-0.5/r", cache_dir=tmp_path)
    assert isinstance(warm.op.eigvecs, np.memmap)
    assert warm.op.eigvecs.tobytes() == cold.op.eigvecs.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        warm.op.eigvecs[:, 0] += 1.0
    for stage in (cold, warm):
        assert stage.op._matrix is None and stage._op0._matrix is None


def test_warm_hit_runs_no_lanczos_solve(tmp_path, monkeypatch, eigensolves):
    cfg = _equivalence_config(tmp_path, "out")
    assert main(["norms", "--config", str(cfg)]) == 0
    norms = (tmp_path / "out" / "norms.csv").read_bytes()
    calls = []
    monkeypatch.setattr(operators, "laplacian_bounds", lambda op: calls.append("bounds"))
    monkeypatch.setattr(operators, "_lanczos_bottom", lambda op: calls.append("lanczos"))
    del eigensolves[:]
    assert main(["norms", "--config", str(cfg)]) == 0
    assert calls == [] and eigensolves == []
    assert (tmp_path / "out" / "norms.csv").read_bytes() == norms


def test_warm_heat_gaussian_runs_no_eigensolve(tmp_path, eigensolves):
    # a potential of both signs: the check also decomposes A_{-V_-}
    out = tmp_path / "out"
    cfg = write_config(tmp_path, domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                       h=[0.25], potential="4*x", checks=[{"name": "heat_gaussian"}],
                       out=str(out))
    command = ["verify", "--config", str(cfg), "--report-only"]
    assert main(command) == 0
    assert eigensolves == [False, False]
    cold = _without_wall_ms(out / "verify.csv")
    del eigensolves[:]
    assert main(command) == 0
    assert eigensolves == []
    assert _without_wall_ms(out / "verify.csv") == cold


# (domain, spacings) drawn by the warm-rerun property; small enough for
# four commands per example
_WARM_DOMAINS = {
    "interval": ({"kind": "interval", "a": 0.0, "b": 1.0}, (1 / 8, 1 / 16)),
    "box": ({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, (1 / 4, 1 / 8)),
    "disk": ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, (1 / 4, 1 / 6)),
    "ball3": ({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, (1 / 3, 1 / 4)),
}


@st.composite
def _warm_configs(draw):
    kind = draw(st.sampled_from(sorted(_WARM_DOMAINS)))
    domain, spacings = _WARM_DOMAINS[kind]
    hs = draw(st.lists(st.sampled_from(spacings), min_size=1, max_size=2, unique=True))
    potentials = [None, "-5", "4*x", "-0.5/r"] + (["2+x*y"] if kind != "interval" else [])
    return {"domain": domain, "h": hs, "potential": draw(st.sampled_from(potentials))}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_warm_configs())
# V = 0: A_V is the free Laplacian, solved by the sector route, whether
# the potential is absent or samples to zero
@example(config={"domain": _WARM_DOMAINS["disk"][0], "h": [1 / 4, 1 / 6], "potential": None})
@example(config={"domain": _WARM_DOMAINS["disk"][0], "h": [1 / 4, 1 / 6], "potential": "0"})
def test_warm_rerun_writes_identical_csvs_without_solves(config, eigensolves):
    norms = [{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0}, {"kind": "sobolev", "s": 1.0}]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp) / "out"
        cfg = write_config(Path(tmp), out=str(out), norms=norms, **config)

        def run():
            for command in ("spectrum", "norms"):
                assert main([command, "--config", str(cfg)]) == 0
            return [(out / f).read_bytes() for f in ("spectrum.csv", "norms.csv")]

        cold = run()
        fresh, bounds = operators.laplacian_bounds, []
        mp.setattr(operators, "laplacian_bounds", lambda op: bounds.append(op) or fresh(op))
        del eigensolves[:]
        warm = run()
    assert warm == cold
    assert eigensolves == [] and bounds == []


@pytest.mark.parametrize(
    "domain,h,potential",
    [
        ({"kind": "interval", "a": 0.0, "b": 1.0}, 1 / 64, "4*x"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, 1 / 8, "2 + x*y"),
        ({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, 1 / 4, "-0.5/r"),
    ],
    ids=["interval", "disk", "ball3"],
)
def test_cached_free_bounds_give_the_cold_window(tmp_path, domain, h, potential):
    spec = make_config({"domain": domain, "h": [h]}).domain_spec()
    cold = besovlab.build_stage(spec, h, potential=potential, cache_dir=tmp_path)
    warm = besovlab.build_stage(spec, h, potential=potential, cache_dir=tmp_path)
    assert warm.op is not cold.op
    assert (warm.sys.j_min, warm.sys.j_max) == (cold.sys.j_min, cold.sys.j_max)
    assert warm.sys == cold.sys
    free = besovlab.assemble_laplacian(warm.grid)
    fresh = besovlab.laplacian_bounds(free)
    assert _entry(tmp_path, "bounds", free).read_bytes()[52:] == struct.pack("<dd", *fresh)


@pytest.mark.parametrize("installed", [False, True])
def test_manifest_records_whether_jobs_cap_applied(tmp_path, monkeypatch, installed):
    calls = []
    fake = None
    if installed:
        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = lambda limits: calls.append(limits)
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out=str(out))
    assert main(["spectrum", "--config", str(cfg), "--jobs", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["jobs"] == {"requested": 3, "applied": installed}
    assert calls == ([3] if installed else [])


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out=str(out))
    proc = subprocess.run(
        [sys.executable, "-m", "besovlab", "spectrum", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "spectrum.csv").exists()


# (overrides of a valid interval config, accepted); the verdicts are the
# ones the JSON Schema validator that config.py used to run gave
_EDGE_CONFIGS = {
    "bool-for-h": ({"h": [True]}, False),
    "bool-for-radius": ({"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": True}},
                        False),
    "bool-for-center": ({"domain": {"kind": "ball", "center": [False, 0.0], "radius": 1.0}},
                        False),
    "bool-for-s": ({"norms": [{"kind": "sobolev", "s": True}]}, False),
    "bool-for-seed": ({"seed": False}, False),
    "bool-for-count": ({"family": {"count": True}}, False),
    "count-2.0": ({"family": {"count": 2.0}}, True),
    "count-2.5": ({"family": {"count": 2.5}}, False),
    "seed-1.0": ({"seed": 1.0}, True),
    "dense-cap-1.0": ({"dense_cap": 1.0}, True),
    "duplicate-h": ({"h": [0.25, 0.25]}, False),
    "duplicate-h-int-float": ({"h": [1, 1.0]}, False),
    "nine-h": ({"h": [1 / k for k in range(2, 11)]}, False),
    "eight-h": ({"h": [1 / k for k in range(2, 10)]}, True),
    "q-inf": ({"norms": [{"kind": "besov", "s": 0.5, "p": 2, "q": "inf"}]}, True),
    "q-Inf-spelling": ({"norms": [{"kind": "lorentz", "p": 2, "q": "Inf"}]}, False),
    "p-below-1": ({"norms": [{"kind": "lorentz", "p": 0.5, "q": 2}]}, False),
    "p-1": ({"norms": [{"kind": "besov", "s": 0, "p": 1, "q": 1}]}, True),
    "unknown-root-key": ({"bogus": 1}, False),
    "unknown-domain-key": ({"domain": {**_INTERVAL, "c": 2.0}}, False),
    "unknown-norm-key": ({"norms": [{"kind": "sobolev", "s": 1, "p": 2}]}, False),
    "unknown-family-key": ({"family": {"tag": "bump", "size": 3}}, False),
    "unknown-check-key": ({"checks": [{"name": "bernstein", "nope": 1}]}, False),
    "empty-out": ({"out": ""}, False),
    "seed-2**64": ({"seed": 2**64}, False),
    "seed-2**64-1": ({"seed": 2**64 - 1}, True),
    "negative-seed": ({"seed": -1}, False),
    "null-potential": ({"potential": None}, True),
    "null-trunc-radius": ({"trunc_radius": None}, True),
    "zero-trunc-radius": ({"trunc_radius": 0}, False),
    "unknown-kind": ({"domain": {"kind": "disk", "a": 0.0, "b": 1.0}}, False),
    "tuple-h": ({"h": (0.25,)}, False),
    "cstar-true": ({"checks": [{"name": "heat_gaussian", "cstar": True}]}, False),
    "homogeneous-no": ({"checks": [{"name": "lifting", "homogeneous": "no"}]}, False),
    "homogeneous-1": ({"checks": [{"name": "resolution_identity", "homogeneous": 1}]}, False),
    "pairs-inf": ({"checks": [{"name": "bernstein", "pairs": [[1, "inf"]]}]}, True),
    "pairs-r-inf": ({"checks": [{"name": "bernstein", "pairs": [["inf", "inf"]]}]}, False),
    "gain-q0-inf": ({"checks": [{"name": "embeddings", "gain": [0, 1, 2, 2, "inf"]}]}, False),
    "radius-inf": ({"checks": [{"name": "equivalence_AV_A0", "radius": "inf"}]}, True),
    "potential-call": ({"potential": "foo(x)"}, False),
    "potential-dangling-op": ({"potential": "x +"}, False),
    "potential-import": ({"potential": "__import__('os')"}, False),
    "potential-y-on-interval": ({"potential": "y"}, False),
    "potential-x1-on-interval": ({"potential": "x1 - 2*r + pi"}, True),
}


@pytest.mark.parametrize("name", list(_EDGE_CONFIGS))
def test_edge_configs_keep_their_verdicts(name):
    overrides, accepted = _EDGE_CONFIGS[name]
    data = {"domain": _INTERVAL, "h": [0.25], **overrides}
    if not accepted:
        with pytest.raises(ConfigInvalid, match=r"^at [^ ]+: "):
            make_config(data)
        return
    cfg = make_config(data)
    for value in (cfg.family["count"], cfg.seed, cfg.dense_cap):
        assert type(value) is int


@pytest.mark.parametrize("name, param", [("cstar-true", "cstar"),
                                         ("homogeneous-no", "homogeneous"),
                                         ("homogeneous-1", "homogeneous")])
def test_mistyped_check_parameter_rejected_at_its_path(name, param):
    overrides, _ = _EDGE_CONFIGS[name]
    with pytest.raises(ConfigInvalid, match=rf"^at checks/0/{param}: "):
        make_config({"domain": _INTERVAL, "h": [0.25], **overrides})


def test_lorentz_p1_with_finite_q_rejected_before_any_grid(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, norms=[{"kind": "lorentz", "p": 1, "q": 2}], out=str(out))
    assert main(["norms", "--config", str(cfg)]) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("ConfigInvalid: at norms/0/p: ")
    assert not list(out.glob("cache/eig-*.bin")) and not (out / "norms.csv").exists()


def test_integral_float_family_count_runs_norms(tmp_path):
    # count 2.0 passed validation but stayed a float, and sampling the
    # family raised TypeError in range(2.0): exit 1 with status error
    out = tmp_path / "out"
    cfg = write_config(tmp_path, family={"count": 2.0}, out=str(out),
                       norms=[{"kind": "sobolev", "s": 1.0}])
    assert main(["norms", "--config", str(cfg)]) == 0
    assert len(read_rows(out / "norms.csv")) == 2
    assert json.loads((out / "manifest.json").read_text())["config"]["family"]["count"] == 2


def test_make_config_defaults_and_ordering():
    cfg = make_config(
        {"domain": {"kind": "interval", "a": 0.0, "b": 1.0}, "h": [0.25, 0.5]}
    )
    assert cfg.h == (0.5, 0.25)  # coarse to fine
    assert cfg.profile == "smooth"
    assert cfg.family == {"tag": "random-eigenmix", "count": 8}
    assert cfg.dense_cap == 4096
    assert cfg.dimension == 1
    assert cfg.function_family().count == 8


def test_config_hash_ignores_key_order():
    a = make_config(
        {"h": [0.5], "domain": {"kind": "interval", "a": 0.0, "b": 1.0}, "seed": 3}
    )
    b = make_config(
        {"seed": 3, "domain": {"b": 1.0, "a": 0.0, "kind": "interval"}, "h": [0.5]}
    )
    assert a.config_hash == b.config_hash


# literal digests of canonical(): a change to what a config hashes to, or to
# the defaults it fills in, moves them
_GOLDEN_HASHES = {
    "readme": (None, "6f9ccd49deb68c3e843fe21da4b62150985bcf1fa9cad1aff3b58e4c26005adb"),
    "interval": ({"domain": _INTERVAL, "h": [0.0625]},
                 "5c2c2019743ea4f0b23b0b2f9b4dfdca5a0a17be3c53388e36813ec754f92bc7"),
    "disk-potential-norms": (
        {"domain": _DISK, "h": [0.125, 0.25], "potential": "0.25/r^2",
         "norms": [{"kind": "besov", "s": 0.5, "p": 2, "q": "inf"},
                   {"kind": "sobolev", "s": 1.0},
                   {"kind": "lorentz", "p": 2, "q": 1.5}]},
        "89e91de0f987c459aa42dcc07fc19b0dfaa9c604740d63642893090acc101654"),
    "ball3-checks": (
        {"domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, "h": [0.25],
         "checks": [{"name": "bernstein"}, {"name": "heat_gaussian", "cstar": 4.0},
                    {"name": "duality", "p": 3, "q": 1.5}],
         "family": {"count": 3}, "seed": 5.0},
        "d9418ea453c988ea01dc7b933a632dfe4fea1da17b95e37ca94cf47a936e3315"),
}


@pytest.mark.parametrize("name", list(_GOLDEN_HASHES))
def test_config_hash_is_pinned(name):
    data, digest = _GOLDEN_HASHES[name]
    if data is None:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        data = json.loads(block)
    assert make_config(data).config_hash == digest


def test_invalid_domains_rejected():
    with pytest.raises(ConfigInvalid):
        make_config({"domain": {"kind": "interval", "a": 1.0, "b": 0.0}, "h": [0.5]})
    with pytest.raises(ConfigInvalid):
        make_config(
            {"domain": {"kind": "box", "lo": [0.0], "hi": [1.0, 2.0]}, "h": [0.5]}
        )
    with pytest.raises(ConfigInvalid, match="domain"):
        make_config(
            {"domain": {"kind": "box", "lo": [0.0, 1.0], "hi": [1.0, 1.0]}, "h": [0.5]}
        )
    with pytest.raises(ConfigInvalid):
        make_config({"domain": {"kind": "torus", "a": 0.0, "b": 1.0}, "h": [0.5]})
    with pytest.raises(ConfigInvalid):
        make_config({"domain": {"kind": "interval", "a": 0.0, "b": 1.0}, "h": []})


def test_reserved_check_parameter_rejected():
    with pytest.raises(ConfigInvalid, match="supplied by the runner"):
        make_config(
            {
                "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
                "h": [0.5],
                "checks": [{"name": "bernstein", "family": "zz"}],
            }
        )


def test_equivalence_window_admission_boundaries():
    def admit(s, report_only=False, domain=_DISK):
        checks = [{"name": "equivalence_AV_A0", "s": s}]
        _check_calls(make_config({"domain": domain, "h": [0.25], "checks": checks}), report_only)

    admit(0.5)  # inside (-1, 1) for n=2, p=2
    for s in (1.0, -1.0):
        with pytest.raises(ConfigInvalid, match=r"^at checks/0/s: AssumptionViolated"):
            admit(s)
    # report-only lets out-of-window through but keeps the dimension rule
    admit(1.0, report_only=True)
    for report_only in (False, True):
        with pytest.raises(ConfigInvalid, match=r"^at checks/0: AssumptionViolated"):
            admit(0.5, report_only, domain=_INTERVAL)


def test_as_exponent():
    assert as_exponent("inf") == math.inf
    assert as_exponent(2) == 2.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read"):
        load_config(tmp_path / "absent.json")
