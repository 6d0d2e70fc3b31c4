"""Constructors and evaluations reject NaN and infinite numbers before any range check.

Every range guard is a comparison, and a comparison with NaN is false, so
without this check a NaN would pass them all and surface as a NaN result.
"""

import math

import pytest

from semcal import (
    Alphabet,
    Channel,
    ContingencyTable,
    Distribution,
    Gaussian,
    GpsModel,
    RateSpec,
    Tabular,
)
from semcal.errors import NonFinite, OutOfRange

NAN, INF = math.nan, math.inf
AB = Alphabet(("e1", "e0"))

CASES = {
    "distribution-nan": lambda: Distribution(AB, (NAN, 1.0)),
    "distribution-inf": lambda: Distribution(AB, (INF, 0.0)),
    "rates-prior-nan": lambda: RateSpec(prior=(NAN, 1.0), posterior=(0.5, 0.5)),
    "rates-posterior-inf": lambda: RateSpec(prior=(0.5, 0.5), posterior=(0.5, INF)),
    "table-nan": lambda: ContingencyTable(NAN, 1, 2, 3),
    "table-inf": lambda: ContingencyTable(1, 2, 3, INF),
    "gaussian-center-nan": lambda: Gaussian(center=NAN, stddev=1.0),
    "gaussian-stddev-nan": lambda: Gaussian(center=0.0, stddev=NAN),
    "gaussian-stddev-inf": lambda: Gaussian(center=0.0, stddev=INF),
    "gaussian-evidence-nan": lambda: Gaussian(center=0.0, stddev=1.0).value(NAN),
    "gaussian-evidence-inf": lambda: Gaussian(center=0.0, stddev=1.0).value(INF),
    "gaussian-label-nan": lambda: Gaussian(center=0.0, stddev=1.0).value("nan"),
    "gaussian-label-inf": lambda: Gaussian(center=0.0, stddev=1.0).value("-inf"),
    "gaussian-label-overflows": lambda: Gaussian(center=0.0, stddev=1.0).value("1e400"),
    "tabular-nan": lambda: Tabular(AB, (NAN, 1.0)),
    "channel-nan": lambda: Channel(AB, ("h",), ((NAN, NAN),)),
    "gps-delta-nan": lambda: GpsModel(grid_size=50, delta_e=NAN, d=5.0, c=0.001),
    "gps-d-nan": lambda: GpsModel(grid_size=50, delta_e=0.0, d=NAN, c=0.001),
    "gps-d-inf": lambda: GpsModel(grid_size=50, delta_e=0.0, d=INF, c=0.001),
    "gps-c-nan": lambda: GpsModel(grid_size=50, delta_e=0.0, d=5.0, c=NAN),
}


#: A number that no float can hold is not NaN or infinite: OutOfRange.
BEYOND_FLOAT_CASES = {
    "gaussian-evidence-int-overflows": lambda: Gaussian(center=0.0, stddev=1.0).value(10**400),
}


@pytest.mark.parametrize("build", BEYOND_FLOAT_CASES.values(), ids=BEYOND_FLOAT_CASES.keys())
def test_number_beyond_float_range_is_out_of_range(build):
    with pytest.raises(OutOfRange) as info:
        build()
    assert info.value.exit_code == 1


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_non_finite_input_is_rejected(build):
    with pytest.raises(NonFinite) as info:
        build()
    assert info.value.exit_code == 1


@pytest.mark.parametrize("d", [0.0, -3.0])
def test_gps_nonpositive_spread_is_out_of_range(d):
    with pytest.raises(OutOfRange):
        GpsModel(grid_size=50, delta_e=0.0, d=d, c=0.001)
