"""Public-API surface tests: everything advertised is importable and the
top-level quickstart path works as README documents."""

import numpy as np

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart(self):
        table = repro.compute_access_table(p=4, k=8, l=4, s=9, m=1)
        assert table.gaps == (3, 12, 15, 12, 3, 12, 3, 12)
        assert table.start == 13
        basis = repro.compute_rl_basis(4, 8, 9)
        assert basis.r.vector == (4, 1)
        assert basis.l.vector == (5, -1)

    def test_subpackage_alls_resolve(self):
        import repro.bench as bench
        import repro.core as core
        import repro.distribution as distribution
        import repro.lang as lang
        import repro.machine as machine
        import repro.runtime as runtime
        import repro.viz as viz

        for module in (core, distribution, machine, runtime, lang, viz, bench):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_level2_descriptor_path(self):
        grid = repro.ProcessorGrid("P", (4,))
        arr = repro.DistributedArray(
            "A", (320,), grid,
            (repro.AxisMap(repro.CyclicK(8), repro.Alignment(2, 1),
                           grid_axis=0, template_extent=640),),
        )
        rank = arr.owner((108,))
        assert 0 <= rank < 4
        assert 0 <= arr.local_address((108,), rank) < arr.local_size(rank)

    def test_level3_language_path(self):
        program = repro.compile_source(
            "PROCESSORS P(4)\nTEMPLATE T(640)\nREAL A(320)\n"
            "ALIGN A(i) WITH T(i)\nDISTRIBUTE T(CYCLIC(8)) ONTO P\n"
            "A(4:319:9) = 100.0\n"
        )
        vm = program.run()
        image = program.image(vm, "A")
        ref = np.zeros(320)
        ref[4:320:9] = 100.0
        assert np.array_equal(image, ref)

    def test_docstrings_everywhere(self):
        """Every public module and every name in __all__ carries a docstring
        (the documentation deliverable, enforced)."""
        import importlib
        import inspect

        modules = [
            "repro", "repro.core", "repro.core.access", "repro.core.lattice",
            "repro.core.euclid", "repro.core.offsets", "repro.core.generator",
            "repro.core.counting", "repro.core.fsm", "repro.core.multidim",
            "repro.core.baselines.sorting",
            "repro.core.baselines.special", "repro.core.baselines.naive",
            "repro.distribution.section", "repro.distribution.layout",
            "repro.distribution.dist", "repro.distribution.align",
            "repro.distribution.array", "repro.distribution.localize",
            "repro.distribution.period",
            "repro.machine.vm", "repro.machine.network",
            "repro.machine.collectives", "repro.machine.topology",
            "repro.machine.costmodel", "repro.machine.trace",
            "repro.oracle", "repro.runtime.address",
            "repro.runtime.commsets", "repro.runtime.commsets2d",
            "repro.runtime.exec", "repro.runtime.redistribute",
            "repro.runtime.native",
            "repro.runtime.native.build",
            "repro.lang.parser", "repro.lang.compiler", "repro.lang.reference",
            "repro.lang.desugar",
            "repro.viz.layout_ascii", "repro.viz.lattice_diagram",
            "repro.viz.tables",
            "repro.bench.timers", "repro.bench.workloads", "repro.bench.report",
            "repro.bench.table1", "repro.bench.table2", "repro.bench.figure7",
            "repro.bench.ablations", "repro.bench.opcounts",
            "repro.bench.claims", "repro.bench.costs",
            "repro.bench.table1_c", "repro.bench.table2_c",
            "repro.bench.nodecode",
            "repro.bench.environment",
        ]
        for modname in modules:
            module = importlib.import_module(modname)
            assert module.__doc__ and module.__doc__.strip(), modname
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert obj.__doc__ and obj.__doc__.strip(), (modname, name)
