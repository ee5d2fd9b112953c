"""The README's configuration reference, checked against RunConfig."""

import json
import os
import re

import pytest

import sphsplines.pipeline as pipeline
from sphsplines.pipeline import RunConfig, build_kernel

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

MATERN = {"family": "matern", "beta": 2.5, "epsilon": 0.3}
WENDLAND = {"family": "wendland", "k": 1, "epsilon": 0.3}
SOBOLEV = {"family": "sobolev", "beta": 2.0}
SCATTER = {"synthetic": {"kind": "scatter", "bumps": 3, "amplitude": [0.5, 1.0],
                         "seed": 4, "samples": 50, "psnr_db": 30.0}}
COUNTS = {"synthetic": {"kind": "counts", "grid": [4, 8], "rate_scale": 20.0,
                        "quadrature_order": 4}}
RASTER = {"raster": {"n_lat": 4, "n_lon": 8, "path": "raster.csv"}}

# documented name -> sections replacing those of the README example to use it
DOCUMENTED = {
    "kernel.family": {"kernel": MATERN},
    "matern": {"kernel": MATERN},
    "beta": {"kernel": MATERN},
    "convention": {"kernel": dict(MATERN, convention="eq60")},
    "standard": {"kernel": dict(MATERN, convention="standard")},
    "eq60": {"kernel": dict(MATERN, convention="eq60")},
    "wendland": {"kernel": WENDLAND},
    "k": {"kernel": WENDLAND},
    "d": {"kernel": dict(WENDLAND, d=3)},
    "sobolev": {"kernel": SOBOLEV},
    "tol": {"kernel": dict(SOBOLEV, tol=1e-6)},
    "epsilon": {"kernel": WENDLAND},
    "knots.fibonacci": {"knots": {"fibonacci": 32}},
    "fwhm_deg": {"kernel": {"family": "wendland", "k": 1, "fwhm_deg": 20.0}},
    "sampling": {"sampling": {"scatter_csv": "samples.csv"}},
    "scatter_csv": {"sampling": {"scatter_csv": "samples.csv"}},
    "patch_csv": {"sampling": {"patch_csv": "counts.csv"}},
    "quadrature_order": {"sampling": {"patch_csv": "counts.csv", "quadrature_order": 4}},
    "synthetic": {"sampling": SCATTER},
    "kind": {"sampling": SCATTER},
    "scatter": {"sampling": SCATTER},
    "counts": {"sampling": COUNTS},
    "bumps": {"sampling": SCATTER},
    "amplitude": {"sampling": SCATTER},
    "seed": {"sampling": SCATTER},
    "samples": {"sampling": SCATTER},
    "psnr_db": {"sampling": SCATTER},
    "grid": {"sampling": COUNTS},
    "rate_scale": {"sampling": COUNTS},
    "cost.kind": {"cost": {"kind": "exact"}},
    "exact": {"cost": {"kind": "exact"}},
    "l2ball": {"cost": {"kind": "l2ball", "rho_rel": 0.05}},
    "rho_rel": {"cost": {"kind": "l2ball", "rho_rel": 0.05}},
    "l1": {"cost": {"kind": "l1"}},
    "ls": {"cost": {"kind": "ls"}},
    "kl": {"cost": {"kind": "kl"}},
    "solver.kind": {"solver": {"kind": "pds"}},
    "pds": {"solver": {"kind": "pds"}},
    "apgd": {"cost": {"kind": "ls"}, "solver": {"kind": "apgd"}},
    "tikhonov": {"cost": {"kind": "ls"}, "solver": {"kind": "tikhonov", "mu": 1e-3}},
    "mu": {"cost": {"kind": "ls"}, "solver": {"kind": "tikhonov", "mu": 1e-3}},
    "lambda": {"lambda": 0.5},
    "eps_stop": {"eps_stop": 1e-6},
    "max_iter": {"max_iter": 500},
    "outputs": {"outputs": {"directory": "run"}},
    "directory": {"outputs": {"directory": "run"}},
    "coefficients": {"outputs": {"coefficients": "x.csv"}},
    "trace": {"outputs": {"trace": "t.csv"}},
    "manifest": {"outputs": {"manifest": "m.json"}},
    "raster": {"outputs": RASTER},
    "n_lat": {"outputs": RASTER},
    "n_lon": {"outputs": RASTER},
    "path": {"outputs": RASTER},
}


def _readme():
    with open(README) as fh:
        return fh.read()


def _example():
    return json.loads(re.search(r"```json\n(.*?)```", _readme(), re.S).group(1))


def _reference_names():
    # backticked names in the bullet list that follows the JSON example,
    # minus CLI flags, file patterns and formulas
    text = _readme()
    start = text.index("- `kernel.family`")
    block = text[start:text.index("The other subcommands", start)]
    names = set(re.findall(r"`([^`]+)`", block))
    return {n for n in names if not n.startswith("-") and not re.search(r"[/|]", n)}


def test_readme_example_is_a_valid_config():
    cfg = RunConfig(_example())
    build_kernel(cfg["kernel"])
    assert cfg["sampling"] == {"scatter_csv": "scatter.csv"}


def test_every_documented_name_has_a_config():
    assert _reference_names() == set(DOCUMENTED)


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_documented_name_is_accepted(name):
    spec = dict(_example(), **DOCUMENTED[name])
    cfg = RunConfig(spec)
    build_kernel(cfg["kernel"])
    assert '"%s"' % name.rsplit(".", 1)[-1] in json.dumps(cfg)


def _is_rules(value):
    # a validator table: key -> (check, default); an empty table is one with
    # no keys, as a variant that takes nothing besides its name (cost.kind
    # exact, solver.kind pds) holds
    return isinstance(value, dict) and all(
        isinstance(rule, tuple) and len(rule) == 2 and callable(rule[0])
        for rule in value.values())


def _validator_names(namespace):
    """Every key of every rule table in the module ``namespace``, and the
    names of the variants (kernel families, synthetic kinds, sampling
    sources, cost and solver kinds) that pick a table."""
    names = set()
    for value in namespace.values():
        if _is_rules(value):
            names |= set(value)
        elif isinstance(value, dict) and value and all(map(_is_rules, value.values())):
            names |= set(value).union(*value.values())
    return names


def test_every_key_the_validator_accepts_is_documented():
    documented = {part for name in _reference_names() for part in name.split(".")}
    accepted = _validator_names(vars(pipeline))
    # the walk found the top-level, nested and per-variant tables, the
    # variant tables with empty variants among them
    assert {"max_iter", "fibonacci", "n_lat", "tol", "rate_scale", "sobolev",
            "patch_csv", "exact", "rho_rel", "pds", "mu"} <= accepted
    assert sorted(accepted - documented) == []


def test_walk_finds_a_key_under_a_variant_table_with_an_empty_variant():
    # pds takes no key besides its kind; a key planted in apgd must still
    # be found, and so fail the documentation check
    solver = {"pds": {}, "apgd": {"planted_key": (lambda value, path: value, None)}}
    names = _validator_names(dict(vars(pipeline), planted_solver_table=solver))
    assert {"planted_key", "pds", "apgd"} <= names
    assert "planted_key" not in _validator_names(vars(pipeline))


def test_wendland_dim_order_spelling_names_the_key():
    spec = dict(_example(), kernel={"family": "wendland", "dim": 3, "order": 1,
                                    "epsilon": 0.3})
    with pytest.raises(ValueError, match=r"unknown config key kernel\.dim\b"):
        RunConfig(spec)


@pytest.mark.parametrize("path, section", [
    ("outputs.rastr", {"outputs": {"rastr": RASTER["raster"]}}),
    ("sampling.synthetic.sample",
     {"sampling": {"synthetic": {"kind": "scatter", "sample": 50}}}),
    ("sampling.quadrature_order",
     {"sampling": {"scatter_csv": "samples.csv", "quadrature_order": 4}}),
    ("outputs.raster.nlat",
     {"outputs": {"raster": {"nlat": 4, "n_lon": 8, "path": "r.csv"}}}),
    ("solver.mu_", {"solver": {"kind": "pds", "mu_": 1.0}}),
    ("lamda", {"lamda": 1.0}),
])
def test_misspelt_key_is_rejected_with_its_path(path, section):
    with pytest.raises(ValueError, match=r"unknown config key %s\b" % re.escape(path)):
        RunConfig(dict(_example(), **section))


def test_normalised_config_round_trips():
    for name in sorted(DOCUMENTED):
        normal = RunConfig(dict(_example(), **DOCUMENTED[name]))
        assert RunConfig(normal) == normal, name
