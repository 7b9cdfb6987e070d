import json

import pytest

from fdmaps.convergence import Tolerances
from fdmaps.functionals import FunctionalSpec
from fdmaps.minimize import BoundaryData, MinimizeConfig
from fdmaps.sequences import SequenceRecipe


@pytest.mark.parametrize("section", [
    FunctionalSpec(family="trunc_exp", p=1.5, trunc_n=4, norm="op", jac_exp=0.5,
                   weight="hyperbolic", s=0.02),
    MinimizeConfig(max_iterations=7, gradient_tolerance=1e-5, initial_step=0.3,
                   backtracking_factor=0.25, jacobian_floor=1e-6),
    BoundaryData(kind="circle_diffeo", sin_coeffs=(0.0, 0.2), cos_coeffs=(0.1,)),
    SequenceRecipe(kind="mollified", params={"target": "radial_stretch", "alpha": 2.0},
                   j_max=8),
    Tolerances(hypothesis_rel=0.2, conclusion_rel=0.3, weak_rel=0.4),
], ids=lambda section: type(section).__name__)
def test_config_json_round_trip(section):
    doc = json.loads(json.dumps(section.to_json()))
    assert type(section).from_json(doc) == section
