#include "rl/dqn.hh"

#include <algorithm>
#include <cmath>

#include "ml/losses.hh"

namespace isw::rl {

namespace {

ml::Matrix
rowMatrix(const ml::Vec &v)
{
    ml::Matrix m(1, v.size());
    std::copy(v.begin(), v.end(), m.data());
    return m;
}

} // namespace

DqnAgent::DqnAgent(const AgentConfig &cfg, std::unique_ptr<Environment> env,
                   sim::Rng &weight_rng, sim::Rng act_rng)
    : AgentBase(cfg, std::move(env), act_rng),
      replay_(cfg.replay_capacity)
{
    const std::size_t obs = env_->observationDim();
    const std::size_t act = env_->actionDim();
    const std::vector<std::size_t> dims{obs, cfg_.hidden, cfg_.hidden, act};
    q_ = ml::Network::mlp<ml::ReLU>(dims, weight_rng, "q");
    // The target starts as an exact copy of q (initialized below).
    sim::Rng dummy(0);
    target_ = ml::Network::mlp<ml::ReLU>(dims, dummy, "qt");
    params_.addNetwork(q_);
    target_params_.addNetwork(target_);
    syncTarget();
    opt_ = std::make_unique<ml::Adam>(cfg_.lr);
}

float
DqnAgent::epsilon() const
{
    const double progress =
        std::min(1.0, static_cast<double>(updates_) /
                          static_cast<double>(cfg_.eps_decay_iters));
    return static_cast<float>(cfg_.eps_end +
                              (cfg_.eps_start - cfg_.eps_end) *
                                  (1.0 - progress));
}

std::size_t
DqnAgent::greedyAction(const ml::Vec &obs)
{
    const ml::Matrix qv = q_.forward(rowMatrix(obs));
    return ml::argmaxRow(qv.row(0));
}

void
DqnAgent::syncTarget()
{
    ml::Vec w;
    params_.copyValuesTo(w);
    target_params_.setValues(w);
}

void
DqnAgent::postUpdate()
{
    if (updates_ % cfg_.target_sync_iters == 0)
        syncTarget();
}

const ml::Vec &
DqnAgent::computeGradient()
{
    // --- Experience collection ---------------------------------------
    for (std::size_t s = 0; s < cfg_.steps_per_iter; ++s) {
        std::size_t action;
        if (rng_.bernoulli(epsilon())) {
            action = static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<std::int64_t>(env_->actionDim()) - 1));
        } else {
            action = greedyAction(cur_obs_);
        }
        StepResult res = env_->step(action);
        trackReward(res.reward, res.done);
        replay_.push(Transition{cur_obs_,
                                {static_cast<float>(action)},
                                res.reward,
                                res.observation,
                                res.done});
        cur_obs_ = res.done ? env_->reset() : std::move(res.observation);
    }

    // --- Gradient computation ----------------------------------------
    params_.zeroGrads();
    grad_.assign(params_.count(), 0.0f);
    if (replay_.size() < cfg_.warmup)
        return grad_; // still warming up: contribute a zero gradient

    replay_.sample(cfg_.batch_size, rng_, batch_);
    const std::size_t batch = batch_.size();
    const std::size_t obs_dim = env_->observationDim();
    ml::Matrix s(batch, obs_dim), s2(batch, obs_dim);
    for (std::size_t i = 0; i < batch; ++i) {
        std::copy(batch_[i]->state.begin(), batch_[i]->state.end(),
                  s.data() + i * obs_dim);
        std::copy(batch_[i]->next_state.begin(), batch_[i]->next_state.end(),
                  s2.data() + i * obs_dim);
    }

    const ml::Matrix q_next = target_.forward(s2);
    const ml::Matrix q_pred = q_.forward(s);

    ml::Matrix dpred(batch, env_->actionDim());
    const float inv_b = 1.0f / static_cast<float>(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        const auto a = static_cast<std::size_t>(batch_[i]->action[0]);
        const float max_next =
            *std::max_element(q_next.row(i).begin(), q_next.row(i).end());
        const float y = batch_[i]->reward +
                        (batch_[i]->done ? 0.0f : cfg_.gamma * max_next);
        const float diff = q_pred.at(i, a) - y;
        // Huber derivative, delta = 1.
        dpred.at(i, a) = std::clamp(diff, -1.0f, 1.0f) * inv_b;
    }

    q_.backwardParams(dpred);
    params_.clipGradNorm(cfg_.grad_clip);
    params_.copyGradsTo(grad_);
    return grad_;
}

} // namespace isw::rl
