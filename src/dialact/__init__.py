"""Dialogue-act tagging and n-best rescoring.

An HMM whose states are dialogue acts: an n-gram discourse grammar supplies
transitions, and word or prosodic evidence supplies likelihoods.  The same
per-act word models rescore recognizer n-best lists.
"""

from .corpus import (Conversation, CorpusError, FeatureSchema, FeatureVector,
                     Hypothesis, NBestList, TagSet, Utterance, default_tagset,
                     downsample_uniform, jackknife_split, load_tagset,
                     parse_conversations, parse_nbest, parse_prosody,
                     save_tagset, serialize_conversations, serialize_nbest,
                     serialize_prosody, symmetrize_speakers)
from .discourse import (DiscourseGrammar, GrammarVariant, discourse_perplexity,
                        load_discourse, save_discourse, train_discourse)
from .hmm import (CombinationWeights, JackknifeResult, LikelihoodTable,
                  brute_force_decode, combine_likelihoods, forward_backward,
                  forward_backward_corpus, tune_alpha_beta, viterbi_corpus,
                  viterbi_decode)
from .metrics import EvalReport, focused_binary_task, tagging_accuracy
from .ngram import (InterpolatedModel, NGramModel, interpolate, perplexity,
                    read_arpa, train_ngram, write_arpa)
from .prosody import (DecisionTree, ProsodyError, TreeConfig, load_tree,
                      prosody_likelihood_tables, serialize_tree,
                      train_tree, tree_posterior, tree_scaled_likelihood)
from .rescore import (RescoreResult, WordErrors, best_hypothesis,
                      mixture_lm_scores, mixture_posterior_scores,
                      per_da_wer_report, rescore_corpus, wer)
from .wordmodels import (DaLmSet, ScoreScaling, classify_from_words,
                         smooth_da_lms, train_da_lms, word_likelihood_tables)

__all__ = [
    "CombinationWeights", "Conversation", "CorpusError", "DaLmSet",
    "DecisionTree", "DiscourseGrammar", "EvalReport", "FeatureSchema",
    "FeatureVector", "GrammarVariant", "Hypothesis", "InterpolatedModel",
    "JackknifeResult", "LikelihoodTable", "NBestList", "NGramModel",
    "ProsodyError", "RescoreResult", "ScoreScaling", "TagSet", "TreeConfig",
    "Utterance", "WordErrors", "best_hypothesis", "brute_force_decode",
    "classify_from_words", "combine_likelihoods", "default_tagset",
    "discourse_perplexity", "downsample_uniform", "focused_binary_task",
    "forward_backward", "forward_backward_corpus", "interpolate",
    "jackknife_split", "load_discourse", "load_tagset", "load_tree",
    "mixture_lm_scores", "mixture_posterior_scores", "parse_conversations",
    "parse_nbest", "parse_prosody", "per_da_wer_report", "perplexity",
    "prosody_likelihood_tables", "read_arpa", "rescore_corpus",
    "save_discourse", "save_tagset", "serialize_conversations",
    "serialize_nbest", "serialize_prosody", "serialize_tree", "smooth_da_lms",
    "symmetrize_speakers", "tagging_accuracy", "train_da_lms",
    "train_discourse", "train_ngram", "train_tree", "tree_posterior",
    "tree_scaled_likelihood", "tune_alpha_beta", "viterbi_corpus",
    "viterbi_decode", "wer", "word_likelihood_tables", "write_arpa",
]
