"""Command-line interface for the full retrieval and ranking pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 scorer protocol error.
"""
from __future__ import annotations

import argparse
import sys

# dense, forge, ensemble and pipeline load numpy: they are imported inside the
# subcommands that use them, so the other subcommands start without it
from . import __version__, fusion, metrics, rerank, sparse
from .corpus import corpus_stats, load_corpus, load_qrels, load_topics
from .errors import DataError, ProtocolError
from .expconfig import load_config
from .runs import Run, read_run, write_run
from .validate import KINDS, validate_artifacts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage exit code is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _weights(raw: str) -> list[float]:
    try:
        return [float(w) for w in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight list {raw!r}") from None


def _topics_lookup(path: str | None) -> dict[str, str] | None:
    if path is None:
        return None
    return {q.qid: q.text for q in load_topics(path)}


def _cmd_index(args) -> int:
    index = sparse.build_index(load_corpus(args.corpus), args.script_policy)
    sparse.save_index(index, args.out)
    print(f"indexed {index.doc_count} documents, {len(index.postings)} terms -> {args.out}")
    return EXIT_OK


def _cmd_retrieve_bm25(args) -> int:
    index = sparse.load_index(args.index)
    params = sparse.Bm25Params(k1=args.k1, b=args.b)
    topics = load_topics(args.topics)
    run = Run(
        entries={q.qid: sparse.bm25_search(index, q.text, args.k, params) for q in topics},
        tag=args.tag,
    )
    write_run(run, args.out)
    print(f"wrote {len(run)} results for {len(topics)} queries -> {args.out}")
    return EXIT_OK


def _cmd_retrieve_dense(args) -> int:
    from . import dense

    queries = dense.load_embeddings(args.queries, args.metric)
    docs = dense.load_embeddings(args.docs, args.metric)
    run = Run(
        entries={qid: dense.dense_search(queries, docs, qid, args.k) for qid in queries.ids},
        tag=args.tag,
    )
    write_run(run, args.out)
    print(f"wrote {len(run)} results for {len(queries)} queries -> {args.out}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    runs = [read_run(path) for path in args.runs]
    if args.normalize == "minmax":
        runs = [fusion.normalize_run(run) for run in runs]
    weights = args.weights if args.weights is not None else [1.0 / len(runs)] * len(runs)
    fused = fusion.fuse(runs, weights)
    if args.k is not None:
        fused = fusion.cut_pool(fused, args.k).to_run()
    write_run(fused, args.out)
    print(f"fused {len(args.runs)} runs -> {args.out}")
    return EXIT_OK


def _cmd_forge_negatives(args) -> int:
    from .forge import sample_negatives, sample_negatives_corpus, write_pairs

    pool = fusion.cut_pool(read_run(args.pool), args.pool_k)
    qrels = load_qrels(args.qrels)
    texts = _topics_lookup(args.topics)
    if args.from_corpus:
        ids = [doc.docid for doc in load_corpus(args.from_corpus)]
        pairs = sample_negatives_corpus(ids, qrels, args.n, args.seed, texts)
    else:
        pairs = sample_negatives(pool, qrels, args.n, args.seed, texts)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} negative pairs -> {args.out}")
    return EXIT_OK


def _cmd_forge_q2q2d(args) -> int:
    from . import dense
    from .forge import AugmentationParams, q2q2d_augment, write_pairs

    params = AugmentationParams(alpha=args.alpha, top_m=args.top_m, tau=args.tau, seed=args.seed)
    test_queries = load_topics(args.test_topics)
    train_queries = load_topics(args.train_topics)
    train_qrels = load_qrels(args.train_qrels)
    vectors = dense.load_embeddings(args.query_vectors)
    pairs = q2q2d_augment(test_queries, train_queries, train_qrels, vectors, params)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} augmented pairs -> {args.out}")
    return EXIT_OK


def _cmd_forge_pseudo(args) -> int:
    from .forge import AugmentationParams, pseudo_label, write_pairs

    params = AugmentationParams(
        pseudo_fraction=args.fraction, pseudo_scale=args.scale, seed=args.seed
    )
    run = read_run(args.run)
    pairs = pseudo_label(run, _topics_lookup(args.topics), params)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} pseudo-labeled pairs -> {args.out}")
    return EXIT_OK


def _cmd_rerank(args) -> int:
    pool = fusion.cut_pool(read_run(args.pool), args.pool_k)
    topics = load_topics(args.topics)
    corpus_lookup = {doc.docid: doc for doc in load_corpus(args.corpus)}
    scorer = rerank.ScorerHandle.parse(args.scorer)
    pairs = rerank.build_pairs(
        pool, topics, corpus_lookup, budget=args.budget, script_policy=args.script_policy
    )
    run = rerank.score_pairs(pairs, scorer, script_policy=args.script_policy)
    write_run(run, args.out)
    print(f"reranked {len(run)} pairs with {scorer.kind} -> {args.out}")
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    from . import ensemble

    runs = [read_run(path) for path in args.runs]
    config = ensemble.EnsembleConfig(base_weights=args.base_weights, lam=args.lam)
    if len(runs) > 1:
        corr = ensemble.correlation_matrix(runs)
        weights = ensemble.adjust_weights(config, corr)
    else:
        weights = [1.0]
    combined = ensemble.ensemble_runs(runs, weights)
    write_run(combined, args.out)
    print("weights: " + ", ".join(f"{w:.4f}" for w in weights))
    print(f"ensembled {len(runs)} runs -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    if args.metric == metrics.NDCG:
        report = metrics.ndcg_at_k(run, qrels, args.k)
    else:
        report = metrics.recall_at_k(run, qrels, args.k)
    lines = [f"{args.metric}@{args.k}\t{report.mean!r}"]
    lines.append(f"evaluated_queries\t{report.evaluated_queries}")
    lines.append(f"skipped_queries\t{report.skipped_queries}")
    if args.per_query:
        for qid in sorted(report.per_query):
            lines.append(f"{qid}\t{report.per_query[qid]!r}")
    output = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
    print(output)
    return EXIT_OK


def _split_pairs(raw: list[str], flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in raw:
        if "=" not in item:
            raise DataError(f"{flag} expects SPLIT=PATH, got {item!r}")
        split, _, path = item.partition("=")
        out[split] = path
    return out


def _cmd_stats(args) -> int:
    topics = {
        split: load_topics(path, language=args.language, split=split)
        for split, path in _split_pairs(args.topics, "--topics").items()
    }
    qrels = {split: load_qrels(path) for split, path in _split_pairs(args.qrels, "--qrels").items()}
    row = corpus_stats(load_corpus(args.corpus), topics, qrels, language=args.language)
    splits = sorted(set(row.queries) | set(row.judgments))
    print("language\t" + "\t".join(f"{s}.queries\t{s}.judgments" for s in splits) + "\tpassages\tarticles")
    cells = [row.language]
    for split in splits:
        cells.append(str(row.queries.get(split, 0)))
        cells.append(str(row.judgments.get(split, 0)))
    cells.append(str(row.passages))
    cells.append("-" if row.articles is None else str(row.articles))
    print("\t".join(cells))
    return EXIT_OK


def _cmd_validate(args) -> int:
    diags = validate_artifacts(args.paths, kind=args.kind)
    for diag in diags:
        print(str(diag))
    if diags:
        print(f"{len(diags)} problem(s) found")
        return EXIT_DATA
    print(f"{len(args.paths)} file(s) clean")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    from .pipeline import run_pipeline

    config = load_config(args.config)
    reports = run_pipeline(config, threads=args.threads)
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
    p_build.add_argument("--script-policy", default="auto", choices=["auto", "whitespace", "unigram"])
    p_build.set_defaults(func=_cmd_index)

    p_retrieve = sub.add_parser("retrieve", help="run sparse or dense retrieval")
    retrieve_sub = p_retrieve.add_subparsers(dest="retrieve_command", required=True)
    p_bm25 = retrieve_sub.add_parser("bm25", help="BM25 top-k search over an index")
    p_bm25.add_argument("--index", required=True)
    p_bm25.add_argument("--topics", required=True)
    p_bm25.add_argument("-k", type=int, default=1000)
    p_bm25.add_argument("--k1", type=float, default=0.9)
    p_bm25.add_argument("--b", type=float, default=0.4)
    p_bm25.add_argument("--tag", default="bm25")
    p_bm25.add_argument("--out", required=True)
    p_bm25.set_defaults(func=_cmd_retrieve_bm25)
    p_dense = retrieve_sub.add_parser("dense", help="exact top-k similarity search")
    p_dense.add_argument("--queries", required=True, help="query vector TSV")
    p_dense.add_argument("--docs", required=True, help="document vector TSV")
    p_dense.add_argument("--metric", default="dot", choices=["dot", "cosine"])
    p_dense.add_argument("-k", type=int, default=1000)
    p_dense.add_argument("--tag", default="dense")
    p_dense.add_argument("--out", required=True)
    p_dense.set_defaults(func=_cmd_retrieve_dense)

    p_fuse = sub.add_parser("fuse", help="normalize and combine runs into a hybrid run")
    p_fuse.add_argument("--runs", nargs="+", required=True)
    p_fuse.add_argument("--weights", type=_weights, default=None, help="comma-separated, e.g. 0.5,0.5")
    p_fuse.add_argument("--normalize", default="minmax", choices=["minmax", "none"])
    p_fuse.add_argument("-k", type=int, default=None, help="cut the fused run to top-k per query")
    p_fuse.add_argument("--out", required=True)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_forge = sub.add_parser("forge", help="manufacture training pairs")
    forge_sub = p_forge.add_subparsers(dest="forge_command", required=True)
    p_neg = forge_sub.add_parser("negatives", help="sample pool (or corpus) negatives")
    p_neg.add_argument("--pool", required=True, help="candidate pool run file")
    p_neg.add_argument("--qrels", required=True)
    p_neg.add_argument("--topics", default=None, help="topics TSV for query text")
    p_neg.add_argument("--from-corpus", default=None, help="sample from this corpus instead of the pool")
    p_neg.add_argument("-n", type=int, required=True, help="negatives per query")
    p_neg.add_argument("--pool-k", type=int, default=fusion.DEFAULT_POOL_K)
    p_neg.add_argument("--seed", type=int, default=0)
    p_neg.add_argument("--out", required=True)
    p_neg.set_defaults(func=_cmd_forge_negatives)
    p_q2q = forge_sub.add_parser("q2q2d", help="augment via similar-query judgment transfer")
    p_q2q.add_argument("--test-topics", required=True)
    p_q2q.add_argument("--train-topics", required=True)
    p_q2q.add_argument("--train-qrels", required=True)
    p_q2q.add_argument("--query-vectors", required=True)
    p_q2q.add_argument("--alpha", type=float, default=0.9)
    p_q2q.add_argument("--top-m", type=int, default=1)
    p_q2q.add_argument("--tau", type=float, default=0.8)
    p_q2q.add_argument("--seed", type=int, default=0)
    p_q2q.add_argument("--out", required=True)
    p_q2q.set_defaults(func=_cmd_forge_q2q2d)
    p_pseudo = forge_sub.add_parser("pseudo", help="sample soft pseudo labels from a scored run")
    p_pseudo.add_argument("--run", required=True, help="scored run with probabilities in [0,1]")
    p_pseudo.add_argument("--topics", default=None)
    p_pseudo.add_argument("--fraction", type=float, default=0.5)
    p_pseudo.add_argument("--scale", type=float, default=0.9)
    p_pseudo.add_argument("--seed", type=int, default=0)
    p_pseudo.add_argument("--out", required=True)
    p_pseudo.set_defaults(func=_cmd_forge_pseudo)

    p_rerank = sub.add_parser("rerank", help="score pool candidates with a pluggable scorer")
    p_rerank.add_argument("--pool", required=True)
    p_rerank.add_argument("--topics", required=True)
    p_rerank.add_argument("--corpus", required=True)
    p_rerank.add_argument("--scorer", default="lexical", help='lexical | file:scores.tsv | cmd:"..."')
    p_rerank.add_argument("--budget", type=int, default=rerank.DEFAULT_BUDGET)
    p_rerank.add_argument("--pool-k", type=int, default=fusion.DEFAULT_POOL_K)
    p_rerank.add_argument("--script-policy", default="auto", choices=["auto", "whitespace", "unigram"])
    p_rerank.add_argument("--out", required=True)
    p_rerank.set_defaults(func=_cmd_rerank)

    p_ens = sub.add_parser("ensemble", help="correlation-aware weighted run combination")
    p_ens.add_argument("--runs", nargs="+", required=True)
    p_ens.add_argument("--base-weights", type=_weights, required=True)
    p_ens.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_ens.add_argument("--out", required=True)
    p_ens.set_defaults(func=_cmd_ensemble)

    p_eval = sub.add_parser("eval", help="score a run against qrels")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--metric", default="ndcg", choices=["ndcg", "recall"])
    p_eval.add_argument("-k", type=int, default=10)
    p_eval.add_argument("--per-query", action="store_true")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="collection statistics for one language")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--language", default="")
    p_stats.add_argument("--topics", action="append", default=[], metavar="SPLIT=PATH")
    p_stats.add_argument("--qrels", action="append", default=[], metavar="SPLIT=PATH")
    p_stats.set_defaults(func=_cmd_stats)

    p_validate = sub.add_parser("validate", help="check artifact files against their formats")
    p_validate.add_argument("paths", nargs="+")
    p_validate.add_argument("--kind", default=None, choices=list(KINDS))
    p_validate.set_defaults(func=_cmd_validate)

    p_pipe = sub.add_parser("pipeline", help="run configured stages end to end")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--threads", type=int, default=1)
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
