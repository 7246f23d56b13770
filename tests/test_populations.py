"""Seeded populations: reproducible streams and bounded rejection sampling."""

import pytest

from ovalfront import DegenerateSamplingError
from populations import MAX_DRAWS_PER_CURVE, random_support_ovals

# (L, A) of the first and last member of each session population, seed 1786
FIRST_LAST = {
    "oval_population": ((6.283185307179586, 3.1367888881630805),
                        (6.283185307179586, 3.1336590680669625)),
    "sphere_population": ((3.949754501422841, 1.3950908190875548),
                          (3.8128064617489734, 1.2745098287774774)),
    "hyperbolic_population": ((7.532802404058272, 3.5257182630482395),
                              (7.535767710666377, 3.5280514068293143)),
    "torsion_population": ((4.263602980685088, 1.6594590484096832),
                           (6.3887516548266445, 6.283185307179587)),
}


@pytest.mark.parametrize("name", sorted(FIRST_LAST))
def test_populations_keep_their_stream(name, request):
    population = request.getfixturevalue(name)
    first, last = FIRST_LAST[name]
    assert (population[0].L, population[0].A) == pytest.approx(first, rel=1e-12)
    assert (population[-1].L, population[-1].A) == pytest.approx(last, rel=1e-12)


def test_rejection_sampling_is_bounded():
    # an 8-sample grid cannot resolve any oval, so every draw is rejected
    cap = MAX_DRAWS_PER_CURVE
    with pytest.raises(DegenerateSamplingError, match=f"{cap} of {cap} draws rejected"):
        random_support_ovals(count=1, n_samples=8)
