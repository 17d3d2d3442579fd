#include "rl/ppo.hh"

#include <cmath>

#include "rl/returns.hh"

namespace isw::rl {

PpoAgent::PpoAgent(const AgentConfig &cfg, std::unique_ptr<Environment> env,
                   sim::Rng &weight_rng, sim::Rng act_rng)
    : AgentBase(cfg, std::move(env), act_rng)
{
    const std::size_t obs = env_->observationDim();
    const std::size_t act = env_->actionDim();
    policy_ = ml::Network::mlp<ml::Tanh>({obs, cfg_.hidden, cfg_.hidden, act},
                                         weight_rng, "pi");
    value_ = ml::Network::mlp<ml::Tanh>({obs, cfg_.hidden, cfg_.hidden, 1},
                                        weight_rng, "v");
    log_std_ = log_std_net_.add<ml::ParamVector>(act, cfg_.init_log_std,
                                                 "log_std");
    params_.addNetwork(policy_);
    params_.addNetwork(value_);
    params_.addNetwork(log_std_net_);
    opt_ = std::make_unique<ml::Adam>(cfg_.lr);
}

ml::Vec
PpoAgent::meanAction(const ml::Vec &obs)
{
    ml::Matrix x(1, obs.size());
    std::copy(obs.begin(), obs.end(), x.data());
    const ml::Matrix mu = policy_.forward(x);
    return {mu.row(0).begin(), mu.row(0).end()};
}

const ml::Vec &
PpoAgent::computeGradient()
{
    const std::size_t T = cfg_.steps_per_iter;
    const std::size_t obs_dim = env_->observationDim();
    const std::size_t act_dim = env_->actionDim();

    // --- Rollout with the current (old) policy -------------------------
    ml::Matrix states(T, obs_dim);
    ml::Matrix actions(T, act_dim);
    std::vector<float> rewards(T), values(T), old_logp(T);
    std::vector<bool> dones(T);
    for (std::size_t t = 0; t < T; ++t) {
        std::copy(cur_obs_.begin(), cur_obs_.end(),
                  states.data() + t * obs_dim);
        const ml::Vec mu = meanAction(cur_obs_);
        {
            ml::Matrix x(1, obs_dim);
            std::copy(cur_obs_.begin(), cur_obs_.end(), x.data());
            values[t] = value_.forward(x).at(0, 0);
        }
        float logp = 0.0f;
        for (std::size_t j = 0; j < act_dim; ++j) {
            const float sd = std::exp(log_std_->value()[j]);
            const float eps = static_cast<float>(rng_.normal());
            const float a = mu[j] + sd * eps;
            actions.at(t, j) = a;
            logp += -0.5f * eps * eps - log_std_->value()[j] -
                    0.5f * std::log(2.0f * static_cast<float>(M_PI));
        }
        old_logp[t] = logp;
        StepResult res = env_->step(actions.row(t));
        trackReward(res.reward, res.done);
        rewards[t] = res.reward;
        dones[t] = res.done;
        cur_obs_ = res.done ? env_->reset() : std::move(res.observation);
    }

    // --- GAE advantages -------------------------------------------------
    float boot;
    {
        ml::Matrix x(1, obs_dim);
        std::copy(cur_obs_.begin(), cur_obs_.end(), x.data());
        boot = value_.forward(x).at(0, 0);
    }
    GaeResult gae = gaeAdvantages(rewards, values, dones, boot, cfg_.gamma,
                                  cfg_.gae_lambda);
    std::vector<float> &adv = gae.advantages;
    const std::vector<float> &returns = gae.returns;
    // Advantage normalization (standard PPO practice).
    normalizeInPlace(adv);

    // --- Gradient pass ----------------------------------------------------
    const ml::Matrix mu_all = policy_.forward(states);
    const ml::Matrix v_all = value_.forward(states);

    ml::Matrix dmu(T, act_dim);
    ml::Matrix dv(T, 1);
    ml::Vec dlogstd(act_dim, 0.0f);
    const float inv_t = 1.0f / static_cast<float>(T);
    for (std::size_t t = 0; t < T; ++t) {
        // New log-prob under (possibly moved) weights.
        float logp = 0.0f;
        for (std::size_t j = 0; j < act_dim; ++j) {
            const float sd = std::exp(log_std_->value()[j]);
            const float z = (actions.at(t, j) - mu_all.at(t, j)) / sd;
            logp += -0.5f * z * z - log_std_->value()[j] -
                    0.5f * std::log(2.0f * static_cast<float>(M_PI));
        }
        const float ratio = std::exp(logp - old_logp[t]);
        const bool clipped = (adv[t] > 0.0f && ratio > 1.0f + cfg_.ppo_clip) ||
                             (adv[t] < 0.0f && ratio < 1.0f - cfg_.ppo_clip);
        for (std::size_t j = 0; j < act_dim; ++j) {
            const float sd = std::exp(log_std_->value()[j]);
            const float z = (actions.at(t, j) - mu_all.at(t, j)) / sd;
            if (!clipped) {
                // d(-ratio*A)/dmu = -A * ratio * z / sd.
                dmu.at(t, j) = -adv[t] * ratio * z / sd * inv_t;
                // d(-ratio*A)/dlogstd = -A * ratio * (z^2 - 1).
                dlogstd[j] += -adv[t] * ratio * (z * z - 1.0f) * inv_t;
            } else {
                dmu.at(t, j) = 0.0f;
            }
        }
        dv.at(t, 0) =
            cfg_.value_coef * 2.0f * (v_all.at(t, 0) - returns[t]) * inv_t;
    }
    // Gaussian entropy bonus: H = sum_j (log_std_j + const), dH/dls = 1.
    for (std::size_t j = 0; j < act_dim; ++j)
        dlogstd[j] += -cfg_.entropy_coef;

    params_.zeroGrads();
    policy_.backwardParams(dmu);
    value_.backwardParams(dv);
    for (std::size_t j = 0; j < act_dim; ++j)
        log_std_->grad()[j] += dlogstd[j];
    params_.clipGradNorm(cfg_.grad_clip);
    params_.copyGradsTo(grad_);
    return grad_;
}

} // namespace isw::rl
