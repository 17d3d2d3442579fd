#include "rl/a2c.hh"

#include <cmath>

#include "ml/losses.hh"
#include "rl/returns.hh"

namespace isw::rl {

A2cAgent::A2cAgent(const AgentConfig &cfg, std::unique_ptr<Environment> env,
                   sim::Rng &weight_rng, sim::Rng act_rng)
    : AgentBase(cfg, std::move(env), act_rng)
{
    const std::size_t obs = env_->observationDim();
    const std::size_t act = env_->actionDim();
    trunk_ = ml::Network::mlp<ml::ReLU>({obs, cfg_.hidden, cfg_.hidden},
                                        weight_rng, "trunk");
    trunk_.add<ml::ReLU>(); // activation after the last trunk layer
    policy_head_ =
        policy_net_.add<ml::Linear>(cfg_.hidden, act, weight_rng, "pi");
    value_head_ =
        value_net_.add<ml::Linear>(cfg_.hidden, std::size_t{1}, weight_rng,
                                   "v");
    params_.addNetwork(trunk_);
    params_.addNetwork(policy_net_);
    params_.addNetwork(value_net_);
    opt_ = std::make_unique<ml::Adam>(cfg_.lr);
}

std::pair<ml::Vec, float>
A2cAgent::evaluate(const ml::Vec &obs)
{
    ml::Matrix x(1, obs.size());
    std::copy(obs.begin(), obs.end(), x.data());
    const ml::Matrix h = trunk_.forward(x);
    ml::Matrix logits = policy_net_.forward(h);
    const ml::Matrix v = value_net_.forward(h);
    ml::Vec probs(logits.row(0).begin(), logits.row(0).end());
    ml::softmaxRow(probs);
    return {std::move(probs), v.at(0, 0)};
}

std::size_t
A2cAgent::sampleAction(const ml::Vec &obs)
{
    auto [probs, v] = evaluate(obs);
    (void)v;
    return ml::sampleCategorical(probs, rng_);
}

ml::Vec
A2cAgent::policyAction(const ml::Vec &obs)
{
    auto [probs, v] = evaluate(obs);
    (void)v;
    return {static_cast<float>(ml::argmaxRow(probs))};
}

const ml::Vec &
A2cAgent::computeGradient()
{
    const std::size_t T = cfg_.steps_per_iter;
    const std::size_t obs_dim = env_->observationDim();
    const std::size_t act_dim = env_->actionDim();

    // --- Rollout -------------------------------------------------------
    ml::Matrix states(T, obs_dim);
    std::vector<std::size_t> actions(T);
    std::vector<float> rewards(T);
    std::vector<bool> dones(T);
    for (std::size_t t = 0; t < T; ++t) {
        std::copy(cur_obs_.begin(), cur_obs_.end(),
                  states.data() + t * obs_dim);
        auto [probs, v] = evaluate(cur_obs_);
        (void)v;
        const std::size_t a = ml::sampleCategorical(probs, rng_);
        StepResult res = env_->step(a);
        trackReward(res.reward, res.done);
        actions[t] = a;
        rewards[t] = res.reward;
        dones[t] = res.done;
        cur_obs_ = res.done ? env_->reset() : std::move(res.observation);
    }

    // Bootstrap from the state after the last step.
    auto [last_probs, last_v] = evaluate(cur_obs_);
    (void)last_probs;

    // --- Returns ---------------------------------------------------------
    const std::vector<float> returns =
        nStepReturns(rewards, dones, last_v, cfg_.gamma);

    // --- Batched forward (weights unchanged since rollout) -------------
    const ml::Matrix h = trunk_.forward(states);
    const ml::Matrix logits = policy_net_.forward(h);
    const ml::Matrix values = value_net_.forward(h);

    ml::Matrix dlogits(T, act_dim);
    ml::Matrix dv(T, 1);
    const float inv_t = 1.0f / static_cast<float>(T);
    for (std::size_t t = 0; t < T; ++t) {
        ml::Vec probs(logits.row(t).begin(), logits.row(t).end());
        ml::softmaxRow(probs);
        const float adv = returns[t] - values.at(t, 0);
        const float ent = ml::entropyRow(probs);
        for (std::size_t j = 0; j < act_dim; ++j) {
            const float onehot = j == actions[t] ? 1.0f : 0.0f;
            float g = (probs[j] - onehot) * adv * inv_t; // policy gradient
            if (probs[j] > 0.0f) {
                // Entropy bonus: dL/dz = c_e * p (log p + H).
                g += cfg_.entropy_coef * probs[j] *
                     (std::log(probs[j]) + ent) * inv_t;
            }
            dlogits.at(t, j) = g;
        }
        dv.at(t, 0) =
            cfg_.value_coef * 2.0f * (values.at(t, 0) - returns[t]) * inv_t;
    }

    // --- Backward --------------------------------------------------------
    params_.zeroGrads();
    ml::Matrix dh_pi = policy_net_.backward(dlogits);
    const ml::Matrix dh_v = value_net_.backward(dv);
    for (std::size_t i = 0; i < dh_pi.raw().size(); ++i)
        dh_pi.raw()[i] += dh_v.raw()[i];
    trunk_.backwardParams(dh_pi);
    params_.clipGradNorm(cfg_.grad_clip);
    params_.copyGradsTo(grad_);
    return grad_;
}

} // namespace isw::rl
