"""Guards on the public surface: every exported name exists, and every
feedback policy is one that some scheme runs."""

import importlib

import pytest

from ltfeedback import simulator
from ltfeedback.feedback import FeedbackPolicy

MODULES = ["ltfeedback", "ltfeedback.combinatorics", "ltfeedback.degree", "ltfeedback.codec",
           "ltfeedback.feedback", "ltfeedback.simulator"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_every_feedback_policy_is_run_by_a_scheme():
    assert {scheme.policy for scheme in simulator.SCHEMES.values()} == set(FeedbackPolicy)
