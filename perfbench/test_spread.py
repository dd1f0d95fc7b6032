"""Tests for the spread and bound arithmetic: python3 -m unittest discover perfbench"""

import statistics
import unittest

from spread import drift, spread, spread_ok


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / 5.5)
        self.assertAlmostEqual(spread(values), (8.25 - 2.75) / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([1.0] * 10), 0.0)
        self.assertEqual(spread([0.0] * 10), 0.0)

    def test_zero_median_with_spread_is_unbounded(self):
        self.assertEqual(spread([0.0] * 6 + [1.0] * 4), float("inf"))

    def test_setup_is_exempt_from_the_spread_bound(self):
        self.assertTrue(spread_ok("setup_s", 5.0, 0.25, 1.0))
        self.assertFalse(spread_ok("latency", 0.3, 0.25, 1.0))
        self.assertTrue(spread_ok("latency", 0.25, 0.25, 1.0))
        # A tuning margin of one third tightens the bound.
        self.assertFalse(spread_ok("latency", 0.1, 0.25, 1 / 3))

    def test_drift_counts_only_the_worse_direction(self):
        self.assertAlmostEqual(drift(100.0, 90.0, "higher"), 0.1)
        self.assertEqual(drift(100.0, 110.0, "higher"), 0.0)
        self.assertAlmostEqual(drift(100.0, 110.0, "lower"), 0.1)
        self.assertEqual(drift(100.0, 90.0, "lower"), 0.0)
        self.assertEqual(drift(0.0, 0.0, "lower"), 0.0)


if __name__ == "__main__":
    unittest.main()
