-- policy: nan_mdsload
-- Greedy spill with a broken mdsload: x/0 - x/0 is NaN for every x. A NaN
-- load passes the `load < 0` clamp and poisons total, so the checks must
-- reject it as a policy error.
-- [metaload]
IWR
-- [mdsload]
MDSs[i]["all"]/0 - MDSs[i]["all"]/0
-- [when]
if whoami < #MDSs and MDSs[whoami]["load"] > .01 and
   MDSs[whoami+1]["load"] < .01 then
-- [where]
targets[whoami+1] = allmetaload/2
-- [howmuch]
{"half"}
