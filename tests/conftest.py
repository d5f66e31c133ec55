import hypothesis
import pytest

from tandemgrip.config import data_text
from tandemgrip.wrench import calibrate, reference_from_csv

hypothesis.settings.register_profile(
    "toolkit",
    max_examples=40,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("toolkit")


@pytest.fixture(scope="session")
def fresh_calibration():
    """``calibrate`` on every row of the shipped dataset, fitted once for the
    acceptance criteria and the warm-start tests."""
    return calibrate(reference_from_csv(data_text("grasp_reference.csv")))
