"""A round whose work or whose check raises counts all its operations as failed.

    PYTHONPATH=src python3 -m pytest -q bench/test_measure.py
"""

import measure


class Fake:
    name = "fake"
    operations = 3

    def __init__(self, run_raises=False, check_raises=False):
        self.run_raises, self.check_raises = run_raises, check_raises

    def setup(self, seed):
        return seed

    def run(self, inputs):
        if self.run_raises:
            raise FloatingPointError("diverged")
        return [inputs]

    def check(self, inputs, out):
        if self.check_raises:
            return out[5]  # an IndexError on malformed output
        return []

    def gain_db(self, inputs, out):
        return 1.0


def test_passing_round():
    r = measure.measure(Fake(), seed=1, seconds=1e-9, traced=False)
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 3, 0)
    assert r["metrics"]["gain_db"] == {"value": 1.0, "unit": "dB"}


def test_raising_run_fails_the_round():
    r = measure.measure(Fake(run_raises=True), seed=1, seconds=1e-9, traced=False)
    assert (r["correct"], r["attempted"], r["failed"]) == (False, 3, 3)


def test_raising_check_fails_the_round():
    r = measure.measure(Fake(check_raises=True), seed=1, seconds=1e-9, traced=False)
    assert (r["correct"], r["attempted"], r["failed"]) == (False, 3, 3)
