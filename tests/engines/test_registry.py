"""Tests for the execution-engine protocol and registry."""

import pytest

from repro.engines import (DEFAULT_ENGINE, ExecutionEngine, JitInterpreter,
                           engine_names, get_engine, register_engine)
from repro.engines.base import _ENGINES
from repro.sim.interpreter import Interpreter, run_program


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert set(engine_names()) >= {"interp", "jit"}

    def test_default_engine_is_jit_and_semantic(self):
        assert DEFAULT_ENGINE == "jit"
        assert DEFAULT_ENGINE in engine_names()

    def test_semantic_excludes_hardware(self):
        # the hardware simulator is a pipeline stage (hw_timing), not a
        # drop-in execution engine
        assert "hw" not in engine_names()
        assert "interp" in engine_names()

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("nonesuch")

    def test_register_replaces_and_restores(self):
        original = get_engine("interp")
        try:
            register_engine(ExecutionEngine(
                "interp", "replacement", Interpreter))
            assert get_engine("interp").description == "replacement"
        finally:
            register_engine(original)
        assert get_engine("interp") is original

    def test_third_party_registration_visible(self):
        engine = ExecutionEngine("_test_engine", "throwaway", Interpreter)
        register_engine(engine)
        try:
            assert "_test_engine" in engine_names()
        finally:
            _ENGINES.pop("_test_engine")


class TestExecutorProtocol:
    def test_interp_executor_builds_interpreter(self, example22_program):
        executor = get_engine("interp").executor(example22_program.copy())
        assert isinstance(executor, Interpreter)
        assert not isinstance(executor, JitInterpreter)

    def test_jit_executor_builds_jit(self, example22_program):
        executor = get_engine("jit").executor(example22_program.copy())
        assert isinstance(executor, JitInterpreter)

    def test_run_program_engine_dispatch(self, example22_program,
                                         example22_result):
        for engine in (None, "interp", "jit"):
            result = run_program(example22_program.copy(), engine=engine)
            assert example22_result.output_equal(result)

    def test_run_program_unknown_engine(self, example22_program):
        with pytest.raises(ValueError, match="unknown execution engine"):
            run_program(example22_program.copy(), engine="nonesuch")
