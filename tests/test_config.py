import json
import re
from pathlib import Path

import pytest

from fdmaps import cli, sequences
from fdmaps.config import rows
from fdmaps.convergence import Tolerances
from fdmaps.errors import ConfigurationError
from fdmaps.functionals import FunctionalSpec
from fdmaps.minimize import BoundaryData, MinimizeConfig
from fdmaps.sequences import SequenceRecipe


@pytest.mark.parametrize("section", [
    FunctionalSpec(family="trunc_exp", p=1.5, trunc_n=4, norm="op", jac_exp=0.5,
                   weight="hyperbolic"),
    MinimizeConfig(max_iterations=7, gradient_tolerance=1e-5),
    BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.2), cos_coeffs=(0.1,)),
    SequenceRecipe(kind="mollified", params={"target": "radial_stretch", "alpha": 2.0},
                   j_max=8),
    Tolerances(hypothesis_rel=0.2, conclusion_rel=0.3, weak_rel=0.4),
], ids=lambda section: type(section).__name__)
def test_config_json_round_trip(section):
    doc = json.loads(json.dumps(section.to_json()))
    assert type(section).from_json(doc) == section


def _read_keys() -> dict:
    """{(section, kind or None): keys} of the tables that read the config."""
    tables = {"domain": cli._DOMAIN, "functional": FunctionalSpec.table(),
              "boundary": BoundaryData.table(), "minimize": MinimizeConfig.table(),
              "sweep": cli._SWEEP, "recipe": SequenceRecipe.table(),
              "diagnostic": cli._DIAGNOSTIC, "diagnostic.tolerances": Tolerances.table(),
              "hopf": cli._HOPF, "oracle": cli._ORACLE}
    keys = {("top level", None): {key for key, row in cli._CONFIG.items() if row[0] is not dict}}
    keys.update({("recipe.params", kind): set(table)
                 for kind, table in sequences.PARAMS.items()})
    for section, table in tables.items():
        kinds = {kind for row in table.values() if len(row) == 3 and row[2] for kind in row[2]}
        if not kinds:
            keys[(section, None)] = set(table)
            continue
        default = table["kind"][1]  # a default kind may have no rows of its own
        for kind in kinds | ({default} if isinstance(default, str) else set()):
            keys[(section, kind)] = set(rows(table, kind)) - {"kind"}
    return keys


def _documented_keys() -> dict:
    """{(section, kind or None): keys} of the README's config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) != 3 or not (cells[0] == "top level" or cells[0].startswith("`")):
            continue
        kind = re.match(r"`(\w+)`", cells[1])
        keys[(cells[0].strip("`"), kind and kind.group(1))] = set(
            re.findall(r"`(\w+)` \(", cells[2]))
    return keys


def test_readme_config_table_lists_the_read_keys():
    # a key is documented if and only if some table reads it
    read = _read_keys()
    assert _documented_keys() == read
    sections = {key for key, row in cli._CONFIG.items() if row[0] is dict}
    assert sections == {section.split(".")[0] for section, _ in read} - {"top level"}


@pytest.mark.parametrize("section, field", [
    (FunctionalSpec, "p"), (FunctionalSpec, "jac_exp"),
    (MinimizeConfig, "gradient_tolerance"), (Tolerances, "conclusion_rel"),
])
def test_constructor_refuses_nan(section, field):
    # NaN used to pass every range check
    with pytest.raises(ConfigurationError):
        section(**{field: float("nan")})
