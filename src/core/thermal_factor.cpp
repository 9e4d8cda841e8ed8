#include "core/thermal_factor.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "solver/polyfit.hpp"

namespace aw {

double
TemperatureFactorModel::factorAt(double tempC) const
{
    return std::exp2((tempC - refTempC) / doublingC);
}

TemperatureCalibration
calibrateTemperatureFactor(const SiliconOracle &card,
                           const KernelDescriptor &probe,
                           double constPlusDynW,
                           const std::vector<double> &tempsC)
{
    if (tempsC.size() < 3)
        fatal("temperature calibration needs >= 3 sweep points");

    TemperatureCalibration cal;
    std::vector<double> temps, lnResiduals;
    for (double t : tempsC) {
        MeasurementConditions cond;
        cond.tempC = t;
        TemperaturePoint pt;
        pt.tempC = t;
        pt.totalPowerW = card.summary(probe, cond).avgPowerW;
        pt.staticResidualW = pt.totalPowerW - constPlusDynW;
        if (pt.staticResidualW <= 0)
            fatal("temperature calibration: non-positive leakage "
                  "residual %.3f W at %.0f C — probe kernel not "
                  "static-dominated or constPlusDynW too high",
                  pt.staticResidualW, t);
        temps.push_back(t);
        lnResiduals.push_back(std::log2(pt.staticResidualW));
        cal.points.push_back(pt);
    }

    // log2(residual) = T / doublingC + const: a line in temperature.
    auto fit = fitLinear(temps, lnResiduals);
    if (fit.slope <= 0)
        fatal("temperature calibration: leakage did not grow with "
              "temperature (slope %.4f)",
              fit.slope);
    cal.model.refTempC = 65.0;
    cal.model.doublingC = 1.0 / fit.slope;
    cal.fitPearsonR = fit.pearsonR;
    return cal;
}

} // namespace aw
