import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    # the first python block under "## Library use", executed verbatim
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["queries"].shape == (50, 8)
    assert 0 < namespace["held_out_map"] <= 1


def test_numeric_defaults_name_their_declarations():
    # the list under "Numeric defaults mirror the reference configuration", rebuilt from the
    # declarations it names, so the docs cannot drift from the code
    from avembed import attention, cca, clustering, data, deep, evaluation, pipeline

    text = README.read_text(encoding="utf-8")
    listed = text.split("Numeric defaults mirror the reference configuration.", 1)[1].split("For small corpora", 1)[0]
    t, s = deep.TrainConfig, data.SynthConfig
    want = [
        f"`deep.TrainConfig`: batch size {t.batch_size}, {t.epochs} epochs, learning rate {t.learning_rate} "
        f"(RMSProp, decay {t.rho}, epsilon {t.epsilon}), dropout {t.dropout} and {t.r} CCA components "
        "(`--r`, for every method);",
        "`deep.DEFAULT_AUDIO_LAYERS` and `deep.DEFAULT_VISUAL_LAYERS`: branch stacks "
        f"{','.join(map(str, deep.DEFAULT_AUDIO_LAYERS))} (audio) and "
        f"{','.join(map(str, deep.DEFAULT_VISUAL_LAYERS))} (visual);",
        f"`cca.DEFAULT_KCCA_BETA` and `cca.DEFAULT_KCCA_KAPPA`: kcca kernel width {cca.DEFAULT_KCCA_BETA} "
        f"and ridge {cca.DEFAULT_KCCA_KAPPA};",
        f"`evaluation.DEFAULT_FOLDS` and `evaluation.DEFAULT_PR_STRIDE`: {evaluation.DEFAULT_FOLDS} folds and "
        f"a precision-recall stride of {evaluation.DEFAULT_PR_STRIDE};",
        f"`clustering.DEFAULT_MAX_ITER` and `clustering.DEFAULT_TOL`: at most {clustering.DEFAULT_MAX_ITER} "
        f"k-means iterations, tolerance {clustering.DEFAULT_TOL};",
        f"`data.SynthConfig`: {s.n_clusters} clusters, latent dim {s.latent_dim}, noise {s.noise_std}, "
        f"lengths {s.length_range[0]}..{s.length_range[1]} seconds;",
        f"`attention.DEFAULT_DIM`: {attention.DEFAULT_DIM} hidden and {attention.DEFAULT_DIM} attention units "
        "in the stand-in scorer;",
        f"`pipeline.METHODS`: `eval --methods` {','.join(pipeline.METHODS)}.",
    ]
    bullets = [" ".join(item.split()) for item in listed.split("\n- ")[1:]]
    assert bullets == want


def test_quoted_defaults_equal_their_declarations():
    # defaults that `--help` and README's walkthrough spell as literals, checked against the
    # declarations they copy, so that neither text can drift from the code
    from avembed import attention, cca, cli, clustering, deep

    reg_help = cli._OPTIONS["reg"][2]
    scale, deep_reg = re.search(r"default: (\S+) \* trace / dim per view for cca and ccca, (\S+) for dcca",
                                reg_help).groups()
    assert float(scale) == cca.DEFAULT_REG_SCALE
    assert float(deep_reg) == deep.TrainConfig.reg
    text = README.read_text(encoding="utf-8")
    hidden = re.search(r"--attention-hidden H >= 1,\s+#\s+default (\d+)\)", text).group(1)
    assert int(hidden) == attention.DEFAULT_DIM
    max_iter = re.search(r"--max-iter \(default (\d+)\)", text).group(1)
    assert int(max_iter) == clustering.DEFAULT_MAX_ITER
