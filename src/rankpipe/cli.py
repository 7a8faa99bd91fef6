"""Command-line interface for the full retrieval and ranking pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 scorer protocol error.
"""
from __future__ import annotations

import argparse
import gc
import sys

# Stage modules are imported inside the handler that runs them, so a call
# loads only what its subcommand uses; numpy comes in only with `retrieve
# dense`, `forge q2q2d` and a pipeline's dense stage.
from . import __version__
from .errors import DataError, ProtocolError
from .tokenization import AUTO
from .validate import KINDS, METRICS, validate_artifacts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3


class _Parser(argparse.ArgumentParser):
    """A flag left out is absent from the parsed arguments unless it
    declares a default, so the library's own default applies to it."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    # argparse exits 2 on usage errors; the documented usage exit code is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _given(args: argparse.Namespace, *names: str, **renamed: str) -> dict:
    """The keyword arguments of a library call from the flags the user gave:
    each of ``names`` fills the parameter of its own name, each key of
    ``renamed`` the parameter it maps to."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {param: getattr(args, dest) for dest, param in pairs if dest in args}


def _tag(raw: str) -> str:
    if raw.split() != [raw]:
        raise argparse.ArgumentTypeError(f"tag {raw!r} must be one token without whitespace")
    return raw


def _cmd_index(args) -> int:
    from .sparse import index_corpus

    index = index_corpus(args.corpus, args.out)
    print(f"indexed {index.doc_count} documents, {len(index.postings)} terms -> {args.out}")
    return EXIT_OK


def _cmd_retrieve_bm25(args) -> int:
    from . import sparse
    from .runs import check_k, write_run

    params = sparse.Bm25Params(**_given(args, "k1", "b"))
    if "k" in args:  # before the index is read
        check_k(args.k)
    run = sparse.retrieve_bm25(sparse.load_index(args.index), args.topics, params=params, **_given(args, "k", "tag"))
    write_run(run, args.out)
    print(f"wrote {len(run)} results for {len(run.entries)} queries -> {args.out}")
    return EXIT_OK


def _cmd_retrieve_dense(args) -> int:
    from . import dense
    from .runs import write_run

    run = dense.retrieve_dense(args.queries, args.docs, **_given(args, "k", "metric", "tag"))
    write_run(run, args.out)
    print(f"wrote {len(run)} results for {len(run.entries)} queries -> {args.out}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    from . import fusion
    from .runs import check_k, read_run, write_run

    # usage errors before data errors: the weights and k are checked before any run is read
    weights = fusion.parse_weights(args.weights) if "weights" in args else [1.0 / len(args.runs)] * len(args.runs)
    fusion.check_legs(len(args.runs), weights)
    if "k" in args:
        check_k(args.k)
    runs = [read_run(path) for path in args.runs]
    if args.normalize == "minmax":
        runs = [fusion.normalize_run(run) for run in runs]
    fused = fusion.fuse(runs, weights)
    if "k" in args:
        fused = fusion.cut_pool(fused, args.k)
    write_run(fused, args.out)
    print(f"fused {len(args.runs)} runs -> {args.out}")
    return EXIT_OK


def _cmd_forge_negatives(args) -> int:
    from .corpus import load_corpus, load_qrels, load_topics
    from .forge import sample_negatives, write_pairs
    from .fusion import cut_pool
    from .runs import check_k, read_run

    # usage errors before data errors: the flags are checked before any input is read
    if "from_corpus" in args and "pool_k" in args:
        raise ValueError("--pool-k applies to --pool only, not to --from-corpus")
    check_k(args.n, 0, "n")
    if "pool_k" in args:
        check_k(args.pool_k)
    qrels = load_qrels(args.qrels)
    texts = load_topics(args.topics) if "topics" in args else None
    if "from_corpus" in args:
        universes = dict.fromkeys(qrels, [doc.docid for doc in load_corpus(args.from_corpus)])
    else:
        pool = cut_pool(read_run(args.pool), **_given(args, pool_k="k"))
        universes = {qid: pool.docids(qid) for qid in pool.entries}
    pairs = sample_negatives(universes, qrels, args.n, args.seed, texts)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} negative pairs -> {args.out}")
    return EXIT_OK


def _cmd_forge_q2q2d(args) -> int:
    from . import dense
    from .corpus import load_qrels, load_topics
    from .forge import AugmentationParams, q2q2d_augment, write_pairs

    params = AugmentationParams(**_given(args, "alpha", "top_m", "tau", "seed"))
    test_queries = load_topics(args.test_topics)
    train_queries = load_topics(args.train_topics)
    train_qrels = load_qrels(args.train_qrels)
    vectors = dense.load_embeddings(args.query_vectors)
    pairs = q2q2d_augment(test_queries, train_queries, train_qrels, vectors, params)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} augmented pairs -> {args.out}")
    return EXIT_OK


def _cmd_forge_pseudo(args) -> int:
    from .corpus import load_topics
    from .forge import AugmentationParams, pseudo_label, write_pairs
    from .runs import Run, read_probabilities

    params = AugmentationParams(**_given(args, "seed", fraction="pseudo_fraction", scale="pseudo_scale"))
    run = Run.from_scores(read_probabilities(args.run))
    pairs = pseudo_label(run, load_topics(args.topics) if "topics" in args else None, params)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} pseudo-labeled pairs -> {args.out}")
    return EXIT_OK


def _cmd_rerank(args) -> int:
    from . import rerank
    from .runs import check_k, read_run, write_run

    # usage errors before data errors: the flags are checked before the pool is read
    if "budget" in args:
        check_k(args.budget, name="budget")
    if "pool_k" in args:
        check_k(args.pool_k)
    scorer = rerank.ScorerHandle.parse(args.scorer) if "scorer" in args else rerank.ScorerHandle()
    run = rerank.rerank_pool(
        read_run(args.pool), args.topics, args.corpus, scorer, **_given(args, "pool_k", "budget")
    )
    write_run(run, args.out)
    print(f"reranked {len(run)} pairs with {scorer.kind} -> {args.out}")
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    from . import ensemble, fusion
    from .runs import read_run, write_run

    # usage errors before data errors: the config is checked before any run is read
    config = ensemble.EnsembleConfig(fusion.parse_weights(args.base_weights), **_given(args, "lam"))
    config.check_run_count(len(args.runs))
    runs = [read_run(path) for path in args.runs]
    weights = ensemble.adjust_weights(config, ensemble.correlation_matrix(runs))
    combined = ensemble.ensemble_runs(runs, weights)
    write_run(combined, args.out)
    print("weights: " + ", ".join(f"{w:.4f}" for w in weights))
    print(f"ensembled {len(runs)} runs -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import metrics
    from .corpus import load_qrels
    from .runs import check_k, read_run

    check_k(args.k, 0 if args.metric == metrics.RECALL else 1)  # before any read; recall@0 is defined
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    report = (metrics.ndcg_at_k if args.metric == metrics.NDCG else metrics.recall_at_k)(run, qrels, args.k)
    lines = [
        f"{args.metric}@{args.k}\t{report.mean!r}",
        f"evaluated_queries\t{report.evaluated_queries}",
        f"skipped_queries\t{report.skipped_queries}",
    ]
    if "per_query" in args:
        lines += [f"{qid}\t{report.per_query[qid]!r}" for qid in sorted(report.per_query)]
    output = "\n".join(lines)
    if "out" in args:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
    print(output)
    return EXIT_OK


def _split_path(raw: str) -> tuple[str, str]:
    from .corpus import SPLITS

    split, equals, path = raw.partition("=")
    if not equals or split not in SPLITS:
        raise argparse.ArgumentTypeError(f"expected SPLIT=PATH with SPLIT one of {', '.join(SPLITS)}, got {raw!r}")
    return split, path


def _cmd_stats(args) -> int:
    from .corpus import corpus_stats, load_corpus, load_qrels, load_topics

    language = _given(args, "language")
    for flag, pairs in (("--topics", args.topics), ("--qrels", args.qrels)):  # usage errors before any read
        if len(dict(pairs)) != len(pairs):
            raise ValueError(f"{flag} gives a split twice")
    topics = {split: load_topics(path) for split, path in args.topics}
    qrels = {split: load_qrels(path) for split, path in args.qrels}
    row = corpus_stats(load_corpus(args.corpus), topics, qrels, **language)
    splits = sorted(set(row.queries) | set(row.judgments))
    print("language\t" + "\t".join(f"{s}.queries\t{s}.judgments" for s in splits) + "\tpassages")
    cells = [row.language]
    for split in splits:
        cells += [str(row.queries.get(split, 0)), str(row.judgments.get(split, 0))]
    cells.append(str(row.passages))
    print("\t".join(cells))
    return EXIT_OK


def _cmd_validate(args) -> int:
    diags = validate_artifacts(args.paths, **_given(args, "kind"))
    for diag in diags:
        print(str(diag))
    if diags:
        print(f"{len(diags)} problem(s) found")
        return EXIT_DATA
    print(f"{len(args.paths)} file(s) clean")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    from .pipeline import load_config, run_pipeline

    config = load_config(args.config)
    reports = run_pipeline(config)
    for language in config.languages:
        for (name, metric, k), report in sorted(reports.get(language, {}).items()):
            print(f"{language}\t{name}\t{metric}@{k}\t{report.mean:.4f}")
    print(f"artifacts under {config.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankpipe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rankpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build retrieval indexes")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build", help="build an inverted index from a corpus")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True)
    # accepts only auto, for perfbench/run.py's cli-tour, which passes it; ROADMAP item 12 frees it
    p_build.add_argument("--script-policy", choices=(AUTO,))
    p_build.set_defaults(func=_cmd_index)

    p_retrieve = sub.add_parser("retrieve", help="run sparse or dense retrieval")
    retrieve_sub = p_retrieve.add_subparsers(dest="retrieve_command", required=True)
    p_bm25 = retrieve_sub.add_parser("bm25", help="BM25 top-k search over an index")
    p_bm25.add_argument("--index", required=True)
    p_bm25.add_argument("--topics", required=True)
    p_bm25.add_argument("-k", type=int)
    p_bm25.add_argument("--k1", type=float)
    p_bm25.add_argument("--b", type=float)
    p_bm25.add_argument("--tag", type=_tag)
    p_bm25.add_argument("--out", required=True)
    p_bm25.set_defaults(func=_cmd_retrieve_bm25)
    p_dense = retrieve_sub.add_parser("dense", help="exact top-k similarity search")
    p_dense.add_argument("--queries", required=True, help="query vector TSV")
    p_dense.add_argument("--docs", required=True, help="document vector TSV")
    p_dense.add_argument("--metric", choices=METRICS)
    p_dense.add_argument("-k", type=int)
    p_dense.add_argument("--tag", type=_tag)
    p_dense.add_argument("--out", required=True)
    p_dense.set_defaults(func=_cmd_retrieve_dense)

    p_fuse = sub.add_parser("fuse", help="normalize and combine runs into a hybrid run")
    p_fuse.add_argument("--runs", nargs="+", required=True)
    p_fuse.add_argument("--weights", help="comma-separated, e.g. 0.5,0.5")
    p_fuse.add_argument("--normalize", default="minmax", choices=["minmax", "none"])
    p_fuse.add_argument("-k", type=int, help="cut the fused run to top-k per query")
    p_fuse.add_argument("--out", required=True)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_forge = sub.add_parser("forge", help="manufacture training pairs")
    forge_sub = p_forge.add_subparsers(dest="forge_command", required=True)
    p_neg = forge_sub.add_parser("negatives", help="sample pool (or corpus) negatives")
    universe = p_neg.add_mutually_exclusive_group(required=True)
    universe.add_argument("--pool", help="candidate pool run file")
    universe.add_argument("--from-corpus", help="sample from this corpus instead of a pool")
    p_neg.add_argument("--qrels", required=True)
    p_neg.add_argument("--topics", help="topics TSV for query text")
    p_neg.add_argument("-n", type=int, required=True, help="negatives per query")
    p_neg.add_argument("--pool-k", type=int)
    p_neg.add_argument("--seed", type=int, default=0)
    p_neg.add_argument("--out", required=True)
    p_neg.set_defaults(func=_cmd_forge_negatives)
    p_q2q = forge_sub.add_parser("q2q2d", help="augment via similar-query judgment transfer")
    p_q2q.add_argument("--test-topics", required=True)
    p_q2q.add_argument("--train-topics", required=True)
    p_q2q.add_argument("--train-qrels", required=True)
    p_q2q.add_argument("--query-vectors", required=True)
    p_q2q.add_argument("--alpha", type=float)
    p_q2q.add_argument("--top-m", type=int)
    p_q2q.add_argument("--tau", type=float)
    p_q2q.add_argument("--seed", type=int)
    p_q2q.add_argument("--out", required=True)
    p_q2q.set_defaults(func=_cmd_forge_q2q2d)
    p_pseudo = forge_sub.add_parser("pseudo", help="sample soft pseudo labels from a scored run")
    p_pseudo.add_argument("--run", required=True, help="scored run with probabilities in [0,1]")
    p_pseudo.add_argument("--topics")
    p_pseudo.add_argument("--fraction", type=float)
    p_pseudo.add_argument("--scale", type=float)
    p_pseudo.add_argument("--seed", type=int)
    p_pseudo.add_argument("--out", required=True)
    p_pseudo.set_defaults(func=_cmd_forge_pseudo)

    p_rerank = sub.add_parser("rerank", help="score pool candidates with a pluggable scorer")
    p_rerank.add_argument("--pool", required=True)
    p_rerank.add_argument("--topics", required=True)
    p_rerank.add_argument("--corpus", required=True)
    p_rerank.add_argument("--scorer", help='lexical (default) | file:run.trec | cmd:"..."')
    p_rerank.add_argument("--budget", type=int)
    p_rerank.add_argument("--pool-k", type=int)
    p_rerank.add_argument("--out", required=True)
    p_rerank.set_defaults(func=_cmd_rerank)

    p_ens = sub.add_parser("ensemble", help="correlation-aware weighted run combination")
    p_ens.add_argument("--runs", nargs="+", required=True)
    p_ens.add_argument("--base-weights", required=True)
    p_ens.add_argument("--lambda", dest="lam", type=float)
    p_ens.add_argument("--out", required=True)
    p_ens.set_defaults(func=_cmd_ensemble)

    p_eval = sub.add_parser("eval", help="score a run against qrels")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--metric", default="ndcg", choices=["ndcg", "recall"])
    p_eval.add_argument("-k", type=int, default=10)
    p_eval.add_argument("--per-query", action="store_true")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="collection statistics for one language")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--language")
    p_stats.add_argument("--topics", action="append", type=_split_path, default=[], metavar="SPLIT=PATH")
    p_stats.add_argument("--qrels", action="append", type=_split_path, default=[], metavar="SPLIT=PATH")
    p_stats.set_defaults(func=_cmd_stats)

    p_validate = sub.add_parser("validate", help="check artifact files against their formats")
    p_validate.add_argument("paths", nargs="+")
    p_validate.add_argument("--kind", choices=list(KINDS))
    p_validate.set_defaults(func=_cmd_validate)

    p_pipe = sub.add_parser("pipeline", help="run configured stages end to end")
    p_pipe.add_argument("--config", required=True)
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A call frees what it builds by reference count and its data holds no
    # cycles, so the cyclic collector would only rescan live runs: it is
    # paused for the call and left as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DataError, OSError) as exc:  # an OSError names the path: a missing, unreadable or wrong-type file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
