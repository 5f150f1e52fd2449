#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "batching/packed_batch.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"

namespace tcb {

DecoderLayer::DecoderLayer(const ModelConfig& cfg, Rng& rng)
    : self_attn_(cfg, rng),
      cross_attn_(cfg, rng),
      ffn_(cfg, rng),
      eps_(cfg.layer_norm_eps) {
  for (int i = 0; i < 3; ++i) {
    ln_gamma_.emplace_back(Shape{cfg.d_model}, 1.0f);
    ln_beta_.emplace_back(Shape{cfg.d_model}, 0.0f);
  }
}

namespace {

/// Residual + LayerNorm helper: returns LN(x + delta).
Tensor residual_norm(const Tensor& x, Tensor delta, const Tensor& gamma,
                     const Tensor& beta, float eps) {
  add_inplace(delta, x);
  Tensor out;
  layer_norm(delta, gamma, beta, eps, out);
  return out;
}

/// Top-k temperature sampling over one logits row; the candidate set is the
/// k largest logits (ties by lower index, like argmax).
Index sample_top_k(const float* logits, Index vocab, Index k,
                   float temperature, Rng& rng) {
  k = std::min(k, vocab);
  // Partial selection of the k best indices.
  std::vector<Index> best;
  best.reserve(static_cast<std::size_t>(k));
  for (Index v = 0; v < vocab; ++v) {
    if (static_cast<Index>(best.size()) < k) {
      best.push_back(v);
      if (static_cast<Index>(best.size()) == k)
        std::sort(best.begin(), best.end(), [&](Index a, Index b) {
          return logits[a] > logits[b] || (logits[a] == logits[b] && a < b);
        });
      continue;
    }
    if (logits[v] > logits[best.back()]) {
      best.back() = v;
      for (std::size_t i = best.size() - 1;
           i > 0 && (logits[best[i]] > logits[best[i - 1]] ||
                     (logits[best[i]] == logits[best[i - 1]] &&
                      best[i] < best[i - 1]));
           --i)
        std::swap(best[i], best[i - 1]);
    }
  }

  const float inv_t = 1.0f / std::max(temperature, 1e-6f);
  const float mx = logits[best[0]];
  std::vector<double> weights(best.size());
  double total = 0.0;
  for (std::size_t i = 0; i < best.size(); ++i) {
    weights[i] = std::exp(static_cast<double>((logits[best[i]] - mx) * inv_t));
    total += weights[i];
  }
  double u = rng.next_double() * total;
  for (std::size_t i = 0; i < best.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return best[i];
  }
  return best.back();
}

}  // namespace

DecodeSession::DecodeSession(const Seq2SeqModel& model, EncoderMemory memory,
                             DecodeOptions opts)
    : model_(model),
      memory_(std::move(memory)),
      opts_(opts),
      slotted_(opts_.mode == AttentionMode::kSlotted &&
               memory_.plan.slot_len > 0),
      groups_(memory_.plan, slotted_),
      src_cache_(memory_.plan.segment_cache(memory_.width)) {
  const ModelConfig& cfg = model_.config();
  max_steps_ = std::min<Index>(opts_.max_steps, cfg.max_len);

  if (memory_.plan.empty()) return;

  // --- Layer state: precomputed cross K/V ----------------------------------
  const auto& layers = model_.decoder_layers();
  states_.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    states_[l].cross_k = layers[l].cross_attn().wk().forward(memory_.states);
    states_[l].cross_v = layers[l].cross_attn().wv().forward(memory_.states);
  }

  // --- One track per request, in the order groups_ numbers them -----------
  for (std::size_t r = 0; r < memory_.plan.rows.size(); ++r) {
    const auto& row = memory_.plan.rows[r];
    for (std::size_t si = 0; si < row.segments.size(); ++si) {
      const auto& seg = row.segments[si];
      DecodeTrack t;
      t.request_id = seg.request_id;
      t.row = Row{static_cast<Index>(r)};
      t.slot = seg.slot_index();
      t.seg_index = static_cast<Index>(si);
      t.src_offset = seg.begin_col();
      t.src_len = seg.length;
      append_track(std::move(t));
    }
  }
}

DecodeSession::~DecodeSession() = default;

bool DecodeSession::done() const noexcept {
  return std::all_of(tracks_.begin(), tracks_.end(),
                     [](const DecodeTrack& t) { return t.finished; });
}

std::vector<std::size_t> DecodeSession::active_tracks() const {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < tracks_.size(); ++i)
    if (!tracks_[i].finished) active.push_back(i);
  return active;
}

DecodeStepOutcome DecodeSession::step() {
  const ModelConfig& cfg = model_.config();
  const Index d = cfg.d_model;
  const Index heads = cfg.n_heads;
  const Index dh = cfg.head_dim();
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto& layers = model_.decoder_layers();

  DecodeStepOutcome outcome;
  const std::vector<std::size_t> active = active_tracks();
  TCB_CHECK(!active.empty(), "DecodeSession::step called when done");
  step_count_ += 1;
  result_.steps = step_count_;
  const Index a_count = static_cast<Index>(active.size());

  // Input embeddings: previous token (BOS before a track's first step) +
  // separate PE at the track-local position |emitted|. Before any splice all
  // active tracks sit at the same position (== global step index), so this
  // is bitwise what the monolithic loop's shared `Pos{t}` computed; after a
  // splice the per-track position is what keeps each request's numerics
  // independent of when it was admitted.
  std::vector<Index> prev;
  prev.reserve(active.size());
  for (const auto a : active)
    prev.push_back(tracks_[a].emitted.empty() ? kBosToken
                                              : tracks_[a].emitted.back());
  Tensor x = model_.embedding().lookup(prev);
  for (Index ai = 0; ai < a_count; ++ai) {
    const std::size_t a = active[static_cast<std::size_t>(ai)];
    const float* pe = model_.positional_encoding().at(
        Pos{static_cast<Index>(tracks_[a].emitted.size())});
    float* row = x.row(ai);
    for (Index j = 0; j < d; ++j) row[j] += pe[j];
  }

  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DecoderLayer& layer = layers[l];
    LayerState& st = states_[l];

    // ---- Masked self-attention over the group's cached K/V -------------
    const Tensor q = layer.self_attn().wq().forward(x);
    const Tensor k_new = layer.self_attn().wk().forward(x);
    const Tensor v_new = layer.self_attn().wv().forward(x);
    for (Index ai = 0; ai < a_count; ++ai) {
      const std::size_t a = active[static_cast<std::size_t>(ai)];
      const float* krow = k_new.row(ai);
      const float* vrow = v_new.row(ai);
      st.k_cache[a].insert(st.k_cache[a].end(), krow, krow + d);
      st.v_cache[a].insert(st.v_cache[a].end(), vrow, vrow + d);
      cur_kv_bytes_ += 2 * static_cast<std::size_t>(d) * sizeof(float);
    }
    result_.peak_kv_bytes = std::max(result_.peak_kv_bytes, cur_kv_bytes_);

    // Keys each track attends over: every cached step of its group.
    std::vector<std::size_t> keys(active.size(), 0);
    for (std::size_t ai = 0; ai < active.size(); ++ai)
      for (const auto m : groups_.members(groups_.group_of(active[ai])))
        keys[ai] += st.k_cache[m].size() / static_cast<std::size_t>(d);
    const std::size_t tasks =
        static_cast<std::size_t>(a_count) * static_cast<std::size_t>(heads);
    // Score scratch, one slab per chunk from the calling thread's arena.
    ChunkScratch self_scratch(tasks,
                              *std::max_element(keys.begin(), keys.end()));
    Tensor attn(Shape{a_count, d});
    parallel_for(
        tasks,
        [&](std::size_t begin, std::size_t end) {
          float* scores = self_scratch.claim();
          for (std::size_t task = begin; task < end; ++task) {
            const Index ai = static_cast<Index>(task / heads);
            const Index h = static_cast<Index>(task % heads);
            const std::size_t a = active[static_cast<std::size_t>(ai)];
            const std::vector<std::size_t>& members =
                groups_.members(groups_.group_of(a));
            const std::size_t head_off = static_cast<std::size_t>(h) * dh;
            const float* qv = q.row(ai) + head_off;
            const std::size_t total = keys[static_cast<std::size_t>(ai)];
            // Scores over every member's cached steps; the redundant
            // cross-request entries are computed, then masked (paper
            // Eq. 5-6 applied step-wise).
            std::size_t idx = 0;
            for (const auto m : members) {
              const auto& kc = st.k_cache[m];
              const std::size_t steps_m =
                  kc.size() / static_cast<std::size_t>(d);
              // Additive mask: adding kMaskedOut to a score of ordinary
              // magnitude rounds to exactly kMaskedOut, so the foreign
              // entries are computed (the redundancy) yet contribute
              // exactly zero after softmax.
              const float mask_add = m == a ? 0.0f : kMaskedOut;
              for (std::size_t s = 0; s < steps_m; ++s) {
                const float* kv =
                    kc.data() + s * static_cast<std::size_t>(d) + head_off;
                scores[idx++] = simd::dot(qv, kv, dh) * inv_sqrt + mask_add;
              }
            }

            float mx = kMaskedOut;
            for (std::size_t s = 0; s < total; ++s)
              mx = std::max(mx, scores[s]);
            float sum = 0.0f;
            for (std::size_t s = 0; s < total; ++s) {
              scores[s] = std::exp(scores[s] - mx);
              // Walks only this track's own KV slot in step order — the
              // chain is per-request and pinned by the decode equivalence
              // tests.
              // tcb-lint: allow(raw-fp-accumulation)
              sum += scores[s];
            }
            const float inv = 1.0f / sum;
            float* out = attn.row(ai) + head_off;
            for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
            // Second walk over the members recovers each score's V row
            // without a parallel pointer array (the arena only holds
            // floats, and the walk order is identical by construction).
            idx = 0;
            for (const auto m : members) {
              const auto& vc = st.v_cache[m];
              const std::size_t steps_m =
                  vc.size() / static_cast<std::size_t>(d);
              for (std::size_t s = 0; s < steps_m; ++s)
                simd::axpy(scores[idx++] * inv,
                           vc.data() + s * static_cast<std::size_t>(d) +
                               head_off,
                           out, dh);
            }
          }
        });
    Tensor x1 = residual_norm(x, layer.self_attn().wo().forward(attn),
                              layer.ln_gamma(0), layer.ln_beta(0), layer.eps());

    // ---- Cross-attention over the source span ---------------------------
    const Tensor q2 = layer.cross_attn().wq().forward(x1);
    Index max_span = 0;
    for (const auto a : active)
      max_span = std::max(max_span, tracks_[a].src_len);
    ChunkScratch cross_scratch(tasks, static_cast<std::size_t>(max_span));
    Tensor attn2(Shape{a_count, d});
    parallel_for(
        tasks,
        [&](std::size_t begin, std::size_t end) {
          float* scores = cross_scratch.claim();
          for (std::size_t task = begin; task < end; ++task) {
            const Index ai = static_cast<Index>(task / heads);
            const Index h = static_cast<Index>(task % heads);
            const std::size_t a = active[static_cast<std::size_t>(ai)];
            const DecodeTrack& tr = tracks_[a];
            const std::size_t head_off = static_cast<std::size_t>(h) * dh;
            const float* qv = q2.row(ai) + head_off;
            const Index row_base = static_cast<Index>(
                flat_offset(tr.row, Col{0}, memory_.width));

            // Fused cross-attention mask: a track may only attend its own
            // source segment (every other column of the row — other
            // requests' tokens and padding — would be masked to exp == 0),
            // so the kernel walks exactly [src_offset, src_offset +
            // src_len) and skips the score-then-mask sweep entirely. The
            // slotted path's slot always contains the segment.
            const Index span_begin = tr.src_offset.value();
            const Index span = tr.src_len;
            TCB_DCHECK(
                span > 0 && span_begin >= 0 &&
                    span_begin + span <= memory_.width.value(),
                "decode: source segment outside the materialized row");
            // Spliced tracks are not in the formation-time plan, so the
            // plan-derived segment table cannot vouch for them.
            TCB_DCHECK(
                tr.spliced ||
                    src_cache_.seg_row(tr.row.value())[span_begin] ==
                        static_cast<std::int32_t>(tr.seg_index),
                "decode: track's source segment disagrees with the plan");

            for (Index j = 0; j < span; ++j) {
              const float* kv =
                  st.cross_k.row(row_base + span_begin + j) + head_off;
              scores[j] = simd::dot(qv, kv, dh) * inv_sqrt;
            }

            float mx = kMaskedOut;
            for (Index j = 0; j < span; ++j) mx = std::max(mx, scores[j]);
            float* out = attn2.row(ai) + head_off;
            for (Index c = 0; c < dh; ++c) out[c] = 0.0f;
            if (mx <= kMaskedOut / 2) continue;  // empty source segment
            float sum = 0.0f;
            for (Index j = 0; j < span; ++j) {
              scores[j] = std::exp(scores[j] - mx);
              // Cross-attention sums span-relative j over the track's own
              // source segment only — per-request chain, pinned numerics.
              // tcb-lint: allow(raw-fp-accumulation)
              sum += scores[j];
            }
            const float inv = 1.0f / sum;
            for (Index j = 0; j < span; ++j) {
              const float w = scores[j] * inv;
              const float* vv =
                  st.cross_v.row(row_base + span_begin + j) + head_off;
              simd::axpy(w, vv, out, dh);
            }
          }
        });
    Tensor x2 = residual_norm(x1, layer.cross_attn().wo().forward(attn2),
                              layer.ln_gamma(1), layer.ln_beta(1), layer.eps());

    // ---- Feed-forward ----------------------------------------------------
    x = residual_norm(x2, layer.ffn().forward(x2), layer.ln_gamma(2),
                      layer.ln_beta(2), layer.eps());
  }

  // ---- Next-token selection & track bookkeeping --------------------------
  const Tensor logits = model_.output_projection().forward(x);
  std::vector<Index> next;
  if (opts_.strategy == DecodeStrategy::kGreedy) {
    next = argmax_rows(logits);
  } else {
    next.resize(static_cast<std::size_t>(a_count));
    for (Index ai = 0; ai < a_count; ++ai) {
      const std::size_t a = active[static_cast<std::size_t>(ai)];
      next[static_cast<std::size_t>(ai)] =
          sample_top_k(logits.row(ai), cfg.vocab_size, opts_.top_k,
                       opts_.temperature, track_rng_[a]);
    }
  }
  std::vector<std::size_t> retired;
  for (Index ai = 0; ai < a_count; ++ai) {
    const std::size_t a = active[static_cast<std::size_t>(ai)];
    const Index token = next[static_cast<std::size_t>(ai)];
    tracks_[a].emitted.push_back(token);
    const Index cap = opts_.cap_at_source_length
                          ? std::min(max_steps_, tracks_[a].src_len)
                          : max_steps_;
    if (token == kEosToken ||
        static_cast<Index>(tracks_[a].emitted.size()) >= cap) {
      tracks_[a].finished = true;
      retired.push_back(a);
      outcome.finished.push_back(tracks_[a].request_id);
      // The track's caches stop growing now: these bytes are what an ideal
      // per-request cleaner could reclaim from here on, whether or not the
      // scheme's group-granular cleaning can.
      std::size_t bytes = 0;
      for (const auto& st : states_)
        bytes += (st.k_cache[a].size() + st.v_cache[a].size()) * sizeof(float);
      result_.reclaimable_kv_bytes += bytes;
    }
  }

  // ---- Group completion: release events + early cleaning (§4.2.2) --------
  for (const std::size_t g : groups_.retire(retired)) {
    outcome.released.push_back(groups_.release(g));
    if (slotted_ && opts_.early_memory_cleaning) free_kv(g);
  }
  return outcome;
}

void DecodeSession::free_kv(std::size_t group) {
  for (const auto m : groups_.members(group)) {
    for (auto& st : states_) {
      const std::size_t bytes =
          (st.k_cache[m].size() + st.v_cache[m].size()) * sizeof(float);
      cur_kv_bytes_ -= bytes;
      result_.early_freed_bytes += bytes;
      st.k_cache[m] = {};
      st.v_cache[m] = {};
    }
  }
}

void DecodeSession::append_track(DecodeTrack track) {
  tracks_.push_back(std::move(track));
  for (auto& st : states_) {
    st.k_cache.emplace_back();
    st.v_cache.emplace_back();
  }
  // Per-request sampling streams: forked by request id so a request draws
  // the same randomness no matter which batch it rides in.
  if (opts_.strategy == DecodeStrategy::kTopK) {
    const Rng base(opts_.sample_seed);
    track_rng_.push_back(
        base.fork(static_cast<std::uint64_t>(tracks_.back().request_id)));
  }
}

void DecodeSession::splice(Row row, Slot slot, Col begin, Index width,
                           const std::vector<Request>& reqs) {
  TCB_CHECK(row >= Row{0} &&
                static_cast<std::size_t>(row.value()) < memory_.plan.rows.size(),
            "splice: row outside the plan");
  const RowLayout& plan_row =
      memory_.plan.rows[static_cast<std::size_t>(row.value())];
  TCB_CHECK(width > 0 && begin.value() >= 0 &&
                begin.value() + width <= plan_row.width,
            "splice: span outside the row");
  Index total_len = 0;
  for (const auto& req : reqs) {
    TCB_CHECK(req.length > 0 && !req.tokens.empty() &&
                  static_cast<Index>(req.tokens.size()) == req.length,
              "splice: request must carry its tokens");
    total_len += req.length;
  }

  // The table refuses the splice while a group on this (row, slot) is live.
  // The span's earlier groups' caches — still resident when early cleaning
  // is off or the scheme is unslotted — are dead the moment the slot is
  // reused, so reclaim them now (they count as freed-before-batch-completion).
  const std::size_t group =
      groups_.splice(SlotSpan{row, slot, begin, width}, reqs);
  const SlotSpan& span = groups_.span(group);
  for (std::size_t g = 0; g < group; ++g)
    if (groups_.span(g).row == span.row && groups_.span(g).slot == span.slot)
      free_kv(g);

  // Mini-encode the spliced requests alone, as one concatenated row. With
  // separate PE + segment mask each request's encoded states are bitwise
  // identical to a solo encode (Seq2SeqModel::encode's TCB_BITWISE
  // contract), so splicing cannot perturb any request's numerics.
  BatchPlan mini;
  mini.scheme = Scheme::kConcatPure;
  mini.row_capacity = total_len;
  mini.slot_len = 0;
  RowLayout mini_row;
  mini_row.width = total_len;
  Index cursor = 0;
  for (const auto& req : reqs) {
    Segment seg;
    seg.request_id = req.id;
    seg.offset = cursor;
    seg.length = req.length;
    seg.slot = 0;
    mini_row.segments.push_back(seg);
    cursor += req.length;
  }
  mini.rows.push_back(std::move(mini_row));

  InferenceOptions enc_opts;
  // Always encode the mini plan in pure-concat mode: the plan above carries
  // no slot grid (slot_len 0), and under separate PE + segment masking the
  // encode is bitwise identical to solo encodes in either mode anyway.
  enc_opts.mode = AttentionMode::kPureConcat;
  enc_opts.separate_positional_encoding = opts_.separate_positional_encoding;
  enc_opts.mask_policy = opts_.mask_policy;
  const EncoderMemory mini_mem =
      model_.encode(pack_batch(mini, reqs), enc_opts);
  TCB_CHECK(mini_mem.width.value() == total_len,
            "splice: mini-encode width mismatch");

  // Overwrite the vacated span's encoder states and per-layer cross K/V.
  // Stale columns beyond total_len are never read: cross-attention walks
  // exactly each track's [src_offset, src_offset + src_len).
  const ModelConfig& cfg = model_.config();
  const std::size_t d = static_cast<std::size_t>(cfg.d_model);
  const std::size_t dest_base =
      flat_offset(row, begin, memory_.width);
  for (Index c = 0; c < total_len; ++c) {
    std::memcpy(memory_.states.row(static_cast<Index>(dest_base) + c),
                mini_mem.states.row(c), d * sizeof(float));
  }
  const auto& layers = model_.decoder_layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Tensor ck = layers[l].cross_attn().wk().forward(mini_mem.states);
    const Tensor cv = layers[l].cross_attn().wv().forward(mini_mem.states);
    for (Index c = 0; c < total_len; ++c) {
      std::memcpy(states_[l].cross_k.row(static_cast<Index>(dest_base) + c),
                  ck.row(c), d * sizeof(float));
      std::memcpy(states_[l].cross_v.row(static_cast<Index>(dest_base) + c),
                  cv.row(c), d * sizeof(float));
    }
  }

  // Admit one fresh track per request; together they are the new group over
  // the span, so their self-attention group is exactly the spliced cohort.
  cursor = 0;
  for (const auto& req : reqs) {
    DecodeTrack t;
    t.request_id = req.id;
    t.row = row;
    t.slot = span.slot;
    t.seg_index = 0;  // not in the plan; unused for spliced tracks
    t.src_offset = Col{begin.value() + cursor};
    t.src_len = req.length;
    t.spliced = true;
    cursor += req.length;
    append_track(std::move(t));
  }
}

DecodeResult DecodeSession::take_result() {
  TCB_CHECK(done(), "DecodeSession::take_result before completion");
  for (auto& track : tracks_) {
    auto tokens = std::move(track.emitted);
    if (!tokens.empty() && tokens.back() == kEosToken) tokens.pop_back();
    result_.outputs.emplace(track.request_id, std::move(tokens));
  }
  return std::move(result_);
}

DecodeResult greedy_decode(const Seq2SeqModel& model,
                           const EncoderMemory& memory,
                           const DecodeOptions& opts) {
  DecodeSession session(model, memory, opts);
  while (!session.done()) session.step();
  return session.take_result();
}

}  // namespace tcb
