"""The benchmark's tracer names ``bayescl`` functions and methods by string
(``perfbench/tracer.py``), and its workloads build the package's configs
(``perfbench/workloads.py``). A name or argument the package no longer
takes fails every benchmark run, so each one is checked here, without
running the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(short):
    return importlib.import_module(f"bayescl.{short}")


def test_every_extra_function_exists(tracer):
    for short, names in tracer.EXTRA_FUNCTIONS.items():
        module = package_module(short)
        for name in names:
            assert callable(getattr(module, name, None)), f"bayescl.{short}.{name}"


def test_every_traced_method_exists(tracer):
    for short, cls_name, meth in tracer.METHODS:
        cls = getattr(package_module(short), cls_name)
        assert meth in cls.__dict__, f"bayescl.{short}.{cls_name}.{meth}"


def test_every_required_span_names_a_traced_function(tracer):
    methods = {(short, meth) for short, _, meth in tracer.METHODS}
    for spans in tracer.REQUIRED_SPANS.values():
        for span in spans:
            short, name = span.split(".")
            module = package_module(short)
            assert (short, name) in methods or callable(getattr(module, name, None)), span


def test_importers_hold_the_traced_functions():
    # the tracer patches every module that holds a reference, and the smoke
    # test checks that these two copies are traced
    training, episodes = package_module("training"), package_module("episodes")
    protocol, head = package_module("protocol"), package_module("head")
    assert training.resolve_sample is episodes.resolve_sample
    assert protocol.class_scores is head.class_scores


def test_the_synth_protocol_workload_builds_its_configs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports corpus from its directory
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.SynthProtocol(0, tiny=True)
    assert [cfg.seed for cfg in workload.pcfgs] == [0, 1]
