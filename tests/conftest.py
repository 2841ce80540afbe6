import pytest

from worked_example import write_worked_example_csv


@pytest.fixture
def worked_example_csv(tmp_path):
    return write_worked_example_csv(tmp_path / "worked.csv")
